package main

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
	"unsafe"

	"esti/internal/autoscale"
	"esti/internal/batching"
	"esti/internal/fleet"
	"esti/internal/hardware"
	"esti/internal/model"
	"esti/internal/partition"
	"esti/internal/perf"
)

// fleetRequests is the fleet-sim trace length: a 600-request 100 req/s
// burst, then a 600-request 10 req/s tail.
const fleetRequests = 1200

// fleetConfig is four PaLM 540B replicas under prefix-affinity routing, a
// brownout watermark, two crashes and a straggler, with autoscaling
// between 2 and 8 replicas.
func fleetConfig() fleet.Config {
	c := fleet.Config{
		Replica: batching.Config{
			Model:       model.PaLM540BPadded(),
			Weights:     model.Int8,
			System:      hardware.TPUv4Slice(4, 4, 4),
			FFN:         partition.FFN2DWeightStationary,
			Attn:        partition.AttnShardBatch,
			Slots:       64,
			MaxLen:      2048 + 256,
			PrefixCache: true,
			Knobs:       perf.DefaultKnobs(),
		},
		Replicas: 4,
		Policy:   fleet.Affinity,
		Recovery: fleet.RecoveryPolicy{BrownoutBelow: 0.6},
		Autoscale: &autoscale.Policy{
			MinReplicas:  2,
			MaxReplicas:  8,
			ScaleInBelow: 1.0,
			WarmupCost:   1.5,
		},
	}
	c.Faults.Crash(1, 1.0, 5.0)
	c.Faults.Crash(2, 1.5, -1)
	c.Faults.Straggle(0, 2.0, 4.5, 3.0)
	return c
}

// fleetTrace is a Zipf-template trace (48 templates of 1024 tokens, Zipf
// s=1.3) whose second half arrives at a tenth of the first half's rate,
// with deadlines for a 30% high-priority tier.
func fleetTrace(seed int64) batching.Trace {
	trace := batching.ZipfPrefixTrace(fleetRequests, 0.01, 1024, 48, 1.3, seed)
	reqs := trace.Requests
	for i := fleetRequests / 2; i < len(reqs); i++ {
		reqs[i].Arrival = 6.0 + float64(i-fleetRequests/2)*0.1
	}
	return batching.WithSLO(batching.Trace{Requests: reqs}, 8.0, 0.3, seed+1)
}

func runFleet(seed int64, seconds float64, traced bool) (*Result, error) {
	var setups []float64
	var c fleet.Config
	var trace batching.Trace
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t0 := time.Now()
		c, trace = fleetConfig(), fleetTrace(seed)
		if _, err := fleet.Simulate(c, trace); err != nil { // warm-up call
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res := &Result{Correct: true}
	var first fleet.Result
	if traced {
		res.Metrics = fleetLayerMetrics(c, trace, seconds, &first, res)
		checkFleet(c, trace, first, res)
		return res, nil
	}

	// A call's latency is the CPU time of the thread that runs it: on a
	// shared 2-vCPU machine, wall-clock tails of single calls are set by
	// when the thread was descheduled, not by the simulator. Throughput
	// stays on the wall clock, at the median call's wall time, so that a
	// burst of descheduling moves it no more than it moves that median.
	// Enough calls for the percentile rule to support a p99.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var lat, walls []float64
	var wall time.Duration
	runtime.GC()
	cpu0 := cpuTime()
	for tailPercentile(len(lat)) < 0.99 || wall.Seconds() < seconds {
		t0, c0 := time.Now(), threadCPU()
		r, err := fleet.Simulate(c, trace)
		c1, d := threadCPU(), time.Since(t0)
		if err != nil {
			return nil, err
		}
		if len(lat) == 0 {
			first = r
		}
		lat = append(lat, ms(c1-c0))
		walls = append(walls, d.Seconds())
		wall += d
	}
	cpu := cpuTime() - cpu0
	res.Attempted = len(lat)
	// Tokens the simulated fleet served: prompt and generated tokens of the
	// completed requests.
	tokens := 0
	for _, o := range first.Outcomes {
		if o.Err == nil {
			tokens += o.Req.Context + o.Req.Gen
		}
	}
	simTokens := float64(len(lat)) * float64(tokens)
	callWall := percentile(walls, 0.5)
	res.Metrics = map[string]Metric{
		"setup_s":        {percentile(setups, 0.5), "s"},
		"ttft_p50_ms":    {percentile(lat, 0.5), "ms"},
		"ttft_p90_ms":    {percentile(lat, 0.9), "ms"},
		"tpot_p50_ms":    {percentile(lat, 0.5) / float64(first.GenTokens), "ms"},
		"itl_p99_ms":     {percentile(lat, 0.99), "ms"},
		"tok_per_s":      {float64(tokens) / callWall, "1/s"},
		"cpu_ms_per_tok": {ms(cpu) / simTokens, "ms"},
		"req_per_s":      {float64(len(trace.Requests)) / callWall, "1/s"},
		"peak_rss_mb":    {peakRSSMB(), "MB"},
	}
	checkFleet(c, trace, first, res)
	return res, nil
}

// fleetLayerMetrics times Simulate calls untraced and traced for half the
// run each and reports the fleet, autoscale and perf layer figures.
func fleetLayerMetrics(c fleet.Config, trace batching.Trace, seconds float64, first *fleet.Result, res *Result) map[string]Metric {
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	calls := 0
	var untraced time.Duration
	var objs, bytes uint64
	for untraced.Seconds() < seconds/2 {
		metrics.Read(allocs)
		o0, b0 := allocs[0].Value.Uint64(), allocs[1].Value.Uint64()
		t0 := time.Now()
		r, err := fleet.Simulate(c, trace)
		untraced += time.Since(t0)
		metrics.Read(allocs)
		objs += allocs[0].Value.Uint64() - o0
		bytes += allocs[1].Value.Uint64() - b0
		if err != nil {
			panic(err)
		}
		if calls == 0 {
			*first = r
		}
		calls++
	}
	tr := newTracer()
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		sp := tr.Begin("fleet.simulate", -1)
		if _, err := fleet.Simulate(c, trace); err != nil {
			panic(err)
		}
		tr.End(sp)
	}
	traced := time.Since(t0)
	res.Attempted = 2 * calls

	m := map[string]Metric{}
	n := float64(calls * len(trace.Requests))
	m["fleet.simulate.ms_per_call"] = Metric{ms(untraced) / float64(calls), "ms"}
	m["fleet.simulate.allocs_per_req"] = Metric{float64(objs) / n, "count"}
	m["fleet.simulate.kb_per_req"] = Metric{float64(bytes) / 1024 / n, "KB"}
	m["fleet.affinity_hit_rate"] = Metric{float64(first.AffinityHits) / math.Max(1, float64(first.AffinityHits+first.AffinityMisses)), "ratio"}
	m["fleet.retries"] = Metric{float64(first.Retries), "count"}
	m["fleet.hedges"] = Metric{float64(first.Hedges), "count"}
	m["autoscale.scale_outs"] = Metric{float64(first.ScaleOuts), "count"}
	m["autoscale.scale_ins"] = Metric{float64(first.ScaleIns), "count"}
	over := traced - untraced
	m["trace.overhead_ms"] = Metric{ms(over), "ms"}
	m["trace.overhead_pct"] = Metric{100 * float64(over) / float64(untraced), "%"}
	perfProbe(m)
	runProbes(probeShape{decodeM: slots, prefillM: 256, ctx: 1024}, m)
	fillLayerMetrics(m)
	notes := []string{fmt.Sprintf("workload fleet-sim: %d untraced calls %.1f ms, %d traced calls %.1f ms, tracing overhead %.1f ms (%.2f%%)",
		calls, ms(untraced), calls, ms(traced), ms(over), 100*float64(over)/float64(untraced))}
	notes = append(notes, probeNotes(m)...)
	if err := writeTraceFiles("fleet-sim", tr, notes); err != nil {
		panic(err)
	}
	return m
}

// perfProbe times one analytic decode evaluation of the fleet's replica
// configuration, the unit the simulator's step costs are built from.
func perfProbe(m map[string]Metric) {
	rc := fleetConfig().Replica
	r := perf.Request{Model: rc.Model, System: rc.System, Weights: rc.Weights,
		FFN: rc.FFN, Attn: rc.Attn, Batch: 64, Context: 2048, Gen: 64}
	k := rc.Knobs
	m["perf.decode.us_per_call"] = Metric{timePerCall(func() { perf.Decode(r, k) }), "us"}
}

// checkFleet verifies properties of a simulation that must hold whatever
// the trace: outcomes partition the trace; GenTokens sums the completed
// requests' Gen; ReplicaSeconds sums the replica lifetime windows; a
// second call returns an identical result; and no completed request beats
// the perf model's batch-1 latency floor.
func checkFleet(c fleet.Config, trace batching.Trace, r fleet.Result, res *Result) {
	fail := func(format string, args ...any) {
		res.Correct = false
		note("check: fleet-sim: "+format, args...)
	}
	seen := map[int]int{}
	gen := 0
	for _, o := range r.Outcomes {
		seen[o.Req.ID]++
		if o.Err == nil {
			gen += o.Req.Gen
		}
	}
	if len(r.Outcomes) != len(trace.Requests) {
		fail("%d outcomes for %d requests", len(r.Outcomes), len(trace.Requests))
	}
	for _, q := range trace.Requests {
		if seen[q.ID] != 1 {
			fail("request %d has %d outcomes", q.ID, seen[q.ID])
		}
	}
	if gen != r.GenTokens {
		fail("GenTokens %d, completed requests generated %d", r.GenTokens, gen)
	}
	windows := 0.0
	for _, p := range r.PerReplica {
		windows += p.RetiredAt - p.AddedAt
	}
	if math.Abs(windows-r.ReplicaSeconds) > 1e-9*math.Max(1, r.ReplicaSeconds) {
		fail("ReplicaSeconds %.9f, lifetime windows sum to %.9f", r.ReplicaSeconds, windows)
	}
	again, err := fleet.Simulate(c, trace)
	if err != nil || !reflect.DeepEqual(again, r) {
		fail("a second Simulate of the same input differs (err %v)", err)
	}
	rc := c.Replica
	floor := func(q *batching.Request) float64 {
		past, ctx := 0, q.Context
		if rc.PrefixCache && q.Template != 0 {
			past, ctx = q.PrefixLen, q.Context-q.PrefixLen
		}
		pre := perf.Prefill(perf.Request{Model: rc.Model, System: rc.System, Weights: rc.Weights,
			KVDType: rc.KVDType, WireDType: rc.WireDType, FFN: rc.FFN, Attn: rc.Attn,
			Batch: 1, Context: ctx, Past: past}, rc.Knobs).Time
		step := perf.Decode(perf.Request{Model: rc.Model, System: rc.System, Weights: rc.Weights,
			KVDType: rc.KVDType, WireDType: rc.WireDType, FFN: rc.FFN, Attn: rc.Attn,
			Batch: 1, Context: q.Context, Gen: 1}, rc.Knobs).Time
		return pre + float64(q.Gen-1)*step
	}
	for _, o := range r.Outcomes {
		if o.Err != nil {
			continue
		}
		if lat, f := o.Req.Done-o.Req.Arrival, floor(o.Req); lat < f*(1-1e-9) {
			fail("request %d finished in %.6f s, under the batch-1 floor %.6f s", o.Req.ID, lat, f)
		}
	}
}

// threadCPU is the calling OS thread's CPU time (Linux
// CLOCK_THREAD_CPUTIME_ID); the caller locks itself to its thread.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(CLOCK_THREAD_CPUTIME_ID): %v", errno))
	}
	return time.Duration(ts.Nano())
}
