package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"esti/internal/engine"
	"esti/internal/model"
	"esti/internal/reference"
)

// setupRepeats is how many times a run sets up; setup_s is their median.
const setupRepeats = 5

// session is a set-up engine workload: weights and a warmed engine.
type session struct {
	sp  *engineSpec
	w   *reference.Weights
	eng *engine.Engine
}

func (s *session) prefix() bool { return len(s.sp.templates) > 0 }

// prefixBudgetBytes is the per-chip store budget. Under batch-sharded
// attention every chip stores full-width K/V.
func (s *session) prefixBudgetBytes() int {
	int8KV := s.sp.opts.KVDType == model.Int8
	return s.sp.prefixBudgetTk * prefixBytesPerToken(int8KV, serveModel.Layers, serveModel.KVHeads*serveModel.HeadDim)
}

// setup builds the weights and the sharded engine and runs one warm-up
// admission and decode, so lazy allocations land before timing.
func setup(sp *engineSpec) (*session, error) {
	w := reference.NewWeights(serveModel, weightSeed)
	eng, err := engine.New(w, serveTorus, sp.opts, slots, sp.maxLen)
	if err != nil {
		return nil, err
	}
	s := &session{sp: sp, w: w, eng: eng}
	warm := []int{1, 2, 3, 4, 5, 6, 7, 8}
	active := make([]bool, slots)
	for i := range active {
		eng.PrefillSlot(i, warm)
		active[i] = true
	}
	eng.DecodeSlots(make([]int, slots), active)
	return s, nil
}

// reset returns the engine to an empty state with cold prefix stores, so
// every round starts alike.
func (s *session) reset() {
	s.eng.Reset()
	if s.prefix() {
		s.eng.EnablePrefixCache(s.prefixBudgetBytes())
	}
}

// round is one replay of the request stream with its wall and CPU time.
type round struct {
	counts Counts
	tl     *Timeline
	wall   time.Duration
	cpu    time.Duration
	steal  time.Duration // stolen from the machine's CPUs during the round
}

func (s *session) serve(reqs []Request, tr *Tracer) (round, *engineExec) {
	s.reset()
	runtime.GC()
	x := newEngineExec(s.eng, s.prefix(), tr)
	c0, s0 := cpuTime(), stealTime()
	t0 := time.Now()
	counts, tl := runLoop(reqs, slots, s.sp.prefillBudget, x, time.Now, tr)
	return round{counts: counts, tl: tl, wall: time.Since(t0), cpu: cpuTime() - c0, steal: stealTime() - s0}, x
}

// minRounds is the fewest rounds a run plays: each step of the schedule is
// timed as its median over the rounds, so a burst of interference (on a
// shared machine, the hypervisor running another guest) that hits one
// round at some step does not reach the figures.
const minRounds = 3

func runEngine(name string, seed int64, seconds float64, traced bool) (*Result, error) {
	sp := engineSpecs[name]
	reqs := genRequests(sp, seed)
	dry, _ := runLoop(reqs, slots, sp.prefillBudget, newDryExec(sp), nil, nil)
	maxWait := 0
	for _, w := range dry.QueueWaits {
		maxWait = max(maxWait, w)
	}
	fmt.Fprintf(os.Stderr, "schedule: %s, %d tokens cached, queue wait max %d iterations\n",
		summaryCounts(dry), dry.CachedTokens, maxWait)

	var setups []float64
	var s *session
	for i := 0; i < setupRepeats; i++ {
		s = nil // let the previous set-up's engine be collected first
		runtime.GC()
		t0 := time.Now()
		var err error
		if s, err = setup(sp); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	res := &Result{Correct: true}
	var rounds []round
	guard := func(r round) {
		if !r.counts.same(dry) {
			res.Correct = false
			note("schedule guard: round %d ran %s; the dry run %s", len(rounds), summaryCounts(r.counts), summaryCounts(dry))
		}
		if len(r.tl.Stamps) != r.counts.Iterations+len(reqs)+r.counts.DecodeCalls {
			res.Correct = false
			note("schedule guard: round %d made %d clock stamps", len(rounds), len(r.tl.Stamps))
		}
		if len(rounds) > 0 && !reflect.DeepEqual(rounds[0].tl.Output, r.tl.Output) {
			res.Correct = false
			note("round %d generated different tokens than round 0", len(rounds))
		}
		rounds = append(rounds, r)
		fmt.Fprintf(os.Stderr, "round %d: %.0f ms wall, %.0f ms CPU, %.0f ms stolen\n", len(rounds)-1, ms(r.wall), ms(r.cpu), ms(r.steal))
	}

	if !traced {
		var spent time.Duration
		for len(rounds) < minRounds || spent+rounds[len(rounds)-1].wall <= time.Duration(seconds*float64(time.Second)) {
			r, _ := s.serve(reqs, nil)
			spent += r.wall
			guard(r)
		}
		rss := peakRSSMB()
		timed := rounds
		if !res.Correct {
			timed = rounds[:1] // rounds that differ have no common timeline
		}
		e2e := engineMetrics(timed)
		e2e["setup_s"] = Metric{percentile(setups, 0.5), "s"}
		e2e["peak_rss_mb"] = Metric{rss, "MB"}
		res.Metrics = e2e
	} else {
		base, _ := s.serve(reqs, nil)
		guard(base)
		tr := newTracer()
		r, x := s.serve(reqs, tr)
		guard(r)
		for i, rq := range reqs {
			if toks := r.tl.Tokens[i]; len(toks) > 0 {
				tr.Add("request", rq.ID, r.tl.at(r.tl.Due[i]), r.tl.at(toks[len(toks)-1]))
			}
		}
		res.Metrics = layerMetrics(s, r, x, tr)
		over := r.wall - base.wall
		res.Metrics["trace.overhead_ms"] = Metric{ms(over), "ms"}
		res.Metrics["trace.overhead_pct"] = Metric{100 * float64(over) / float64(base.wall), "%"}
		notes := []string{
			fmt.Sprintf("workload %s seed %d: untraced round %.1f ms, traced round %.1f ms, tracing overhead %.1f ms (%.1f%%)",
				name, seed, ms(base.wall), ms(r.wall), ms(over), 100*float64(over)/float64(base.wall)),
		}
		notes = append(notes, probeNotes(res.Metrics)...)
		if err := writeTraceFiles(name, tr, notes); err != nil {
			return nil, err
		}
	}

	// A round ends only when every request has completed, so none fails;
	// an engine fault aborts the run instead.
	res.Attempted = len(rounds) * len(reqs)
	checkOutputs(s, reqs, rounds[0].tl, res)
	return res, nil
}

// writeTraceFiles writes the Chrome trace and the per-layer summary under
// .bench_out/ in the working directory.
func writeTraceFiles(name string, tr *Tracer, notes []string) error {
	dir := ".bench_out"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name+".trace.json")
	if err := tr.writeChrome(path, "servebench "+name); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".layers.txt"))
	if err != nil {
		return err
	}
	writeSummary(f, tr.summary(), notes)
	fmt.Fprintf(os.Stderr, "trace: %s, per-layer summary: %s\n", path, f.Name())
	return f.Close()
}

func summaryCounts(c Counts) string {
	return fmt.Sprintf("iterations %d, prefill chunks %d, decode calls %d, tokens %d+%d",
		c.Iterations, c.PrefillChunks, c.DecodeCalls, c.PromptTokens, c.GenTokens)
}

// engineMetrics computes the end-to-end metrics of a run's rounds. Every
// round made the same engine calls and clock stamps in the same order (the
// schedule guard checks it), so the run's timeline is built step by step:
// each span between consecutive stamps takes its median over the rounds.
// Latencies and throughput are read off that timeline; CPU time per token
// is the median over rounds.
func engineMetrics(rounds []round) map[string]Metric {
	tl, c := rounds[0].tl, rounds[0].counts
	at := make([]float64, len(tl.Stamps)) // ms since the round began
	step := make([]float64, len(rounds))
	prev := 0.0
	for j := range at {
		for k, r := range rounds {
			d := r.tl.Stamps[j]
			if j > 0 {
				d -= r.tl.Stamps[j-1]
			}
			step[k] = ms(d)
		}
		prev += percentile(step, 0.5)
		at[j] = prev
	}
	var ttft, tpot, itl []float64
	for i, ts := range tl.Tokens {
		ttft = append(ttft, at[ts[0]]-at[tl.Due[i]])
		if n := len(ts); n > 1 {
			tpot = append(tpot, (at[ts[n-1]]-at[ts[0]])/float64(n-1))
		}
		for j := 1; j < len(ts); j++ {
			itl = append(itl, at[ts[j]]-at[ts[j-1]])
		}
	}
	tokens := float64(c.PromptTokens + c.GenTokens)
	cpu := make([]float64, len(rounds))
	for k, r := range rounds {
		cpu[k] = ms(r.cpu) / tokens
	}
	wall := at[len(at)-1] / 1e3 // the last stamp is the last token
	return map[string]Metric{
		"ttft_p50_ms":    {percentile(ttft, 0.5), "ms"},
		"ttft_p90_ms":    {percentile(ttft, 0.9), "ms"},
		"tpot_p50_ms":    {percentile(tpot, 0.5), "ms"},
		"itl_p99_ms":     {percentile(itl, 0.99), "ms"},
		"tok_per_s":      {tokens / wall, "1/s"},
		"cpu_ms_per_tok": {percentile(cpu, 0.5), "ms"},
		"req_per_s":      {float64(c.Completed) / wall, "1/s"},
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
