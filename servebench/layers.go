package main

import "math"

// layerUnits lists every per-layer metric with its unit. A run prints all
// of them; a figure whose layer the workload does not exercise (the engine
// on fleet-sim, the prefix cache on chat and offline, the simulator on the
// engine workloads) reads 0.
var layerUnits = map[string]string{
	"engine.prefill.us_per_tok":     "us",
	"engine.prefill.gflops":         "GFLOP/s",
	"engine.decode.ms_p50":          "ms",
	"engine.decode.ms_tail":         "ms",
	"engine.decode.tail_pct":        "%",
	"engine.decode.gflops":          "GFLOP/s",
	"engine.decode.batch_mean":      "count",
	"engine.decode.ctx_mean":        "count",
	"engine.decode.allocs_per_call": "count",
	"engine.release.us_p50":         "us",
	"mesh.bytes_per_decode":         "B",
	"mesh.int8_bytes_per_decode":    "B",
	"mesh.msgs_per_decode":          "count",
	"mesh.bytes_per_prefill_tok":    "B",
	"mesh.overlap_frac":             "ratio",
	"kvcache.prefix.hit_rate":       "ratio",
	"kvcache.prefix.hit_tokens":     "count",
	"kvcache.prefix.evictions":      "count",
	"kvcache.prefix.acquire_us_p50": "us",
	"kvcache.prefix.insert_us_p50":  "us",
	"kvcache.slot_bytes_per_chip":   "B",
	"sampling.greedy.us_p50":        "us",
	"sched.iterations":              "count",
	"sched.prefill_chunks":          "count",
	"sched.queue_wait_iters_p50":    "count",
	"sched.slot_occupancy_mean":     "count",
	"reference.attend.us_per_call":  "us",
	"reference.attend.flops":        "flop",
	"reference.attend.bytes":        "B",
	"reference.attend.gbps":         "GB/s",
	"tensor.matmul.decode_us":       "us",
	"tensor.matmul.decode_flops":    "flop",
	"tensor.matmul.decode_bytes":    "B",
	"tensor.matmul.prefill_us":      "us",
	"tensor.matmul.prefill_flops":   "flop",
	"tensor.matmul.prefill_bytes":   "B",
	"tensor.matmul.gflops":          "GFLOP/s",
	"quant.matmul.decode_us":        "us",
	"quant.matmul.decode_bytes":     "B",
	"simd.avx2":                     "bool",
	"fleet.simulate.ms_per_call":    "ms",
	"fleet.simulate.allocs_per_req": "count",
	"fleet.simulate.kb_per_req":     "KB",
	"perf.decode.us_per_call":       "us",
	"fleet.affinity_hit_rate":       "ratio",
	"fleet.retries":                 "count",
	"fleet.hedges":                  "count",
	"autoscale.scale_outs":          "count",
	"autoscale.scale_ins":           "count",
	"trace.overhead_ms":             "ms",
	"trace.overhead_pct":            "%",
}

// fillLayerMetrics adds a 0 for every per-layer metric m lacks.
func fillLayerMetrics(m map[string]Metric) {
	for name, unit := range layerUnits {
		if _, ok := m[name]; !ok {
			m[name] = Metric{0, unit}
		}
	}
}

// layerMetrics derives the per-layer figures of a traced engine round from
// its spans, the counters read around each engine call, and standalone
// kernel probes at the workload's shapes.
func layerMetrics(s *session, r round, x *engineExec, tr *Tracer) map[string]Metric {
	m := map[string]Metric{}
	c := r.counts
	p50 := func(name string) float64 { return percentile(tr.durations(name), 0.5) }

	preNs, preFlops := tr.total("engine.prefill")
	m["engine.prefill.us_per_tok"] = Metric{preNs / 1e3 / float64(c.PrefillTokens), "us"}
	m["engine.prefill.gflops"] = Metric{preFlops / preNs, "GFLOP/s"}
	dec := tr.durations("engine.decode")
	decNs, decFlops := tr.total("engine.decode")
	calls := float64(c.DecodeCalls)
	m["engine.decode.ms_p50"] = Metric{percentile(dec, 0.5) / 1e6, "ms"}
	// One traced round makes too few decode calls for a p99 on offline
	// (153) and templates (557), so the tail is taken at the percentile the
	// rule allows and that level is reported beside it.
	tail := tailPercentile(len(dec))
	m["engine.decode.ms_tail"] = Metric{percentile(dec, tail) / 1e6, "ms"}
	m["engine.decode.tail_pct"] = Metric{100 * tail, "%"}
	m["engine.decode.gflops"] = Metric{decFlops / decNs, "GFLOP/s"}
	m["engine.decode.batch_mean"] = Metric{float64(c.DecodeTokens) / calls, "count"}
	m["engine.decode.ctx_mean"] = Metric{float64(x.decodeCtx) / float64(c.DecodeTokens), "count"}
	m["engine.decode.allocs_per_call"] = Metric{float64(x.decodeAllocs) / calls, "count"}
	m["engine.release.us_p50"] = Metric{p50("engine.release") / 1e3, "us"}

	m["mesh.bytes_per_decode"] = Metric{float64(x.meshBytes) / calls, "B"}
	m["mesh.int8_bytes_per_decode"] = Metric{float64(x.meshInt8) / calls, "B"}
	m["mesh.msgs_per_decode"] = Metric{float64(x.meshMsgs) / calls, "count"}
	m["mesh.bytes_per_prefill_tok"] = Metric{float64(x.prefillBytes) / float64(c.PrefillTokens), "B"}
	m["mesh.overlap_frac"] = Metric{s.eng.MeasuredOverlap(), "ratio"}

	if s.prefix() {
		st := s.eng.PrefixStats()
		m["kvcache.prefix.hit_rate"] = Metric{st.HitRate(), "ratio"}
		m["kvcache.prefix.hit_tokens"] = Metric{float64(st.HitTokens), "count"}
		m["kvcache.prefix.evictions"] = Metric{float64(st.Evictions), "count"}
		m["kvcache.prefix.acquire_us_p50"] = Metric{p50("kvcache.prefix.acquire") / 1e3, "us"}
		m["kvcache.prefix.insert_us_p50"] = Metric{p50("kvcache.prefix.insert") / 1e3, "us"}
	}
	m["kvcache.slot_bytes_per_chip"] = Metric{float64(s.eng.ChipCacheBytes(0)), "B"}
	m["sampling.greedy.us_p50"] = Metric{p50("sampling.greedy") / 1e3, "us"}

	waits := make([]float64, len(c.QueueWaits))
	for i, w := range c.QueueWaits {
		waits[i] = float64(w)
	}
	m["sched.iterations"] = Metric{float64(c.Iterations), "count"}
	m["sched.prefill_chunks"] = Metric{float64(c.PrefillChunks), "count"}
	m["sched.queue_wait_iters_p50"] = Metric{percentile(waits, 0.5), "count"}
	m["sched.slot_occupancy_mean"] = Metric{float64(c.OccupiedSlots) / float64(c.Iterations), "count"}

	runProbes(probeShape{
		decodeM:  slots,
		prefillM: int(math.Round(float64(c.PrefillTokens) / float64(c.PrefillChunks))),
		ctx:      int(math.Round(float64(x.decodeCtx) / float64(c.DecodeTokens))),
		int8KV:   s.eng.Int8KV(),
	}, m)
	perfProbe(m)
	fillLayerMetrics(m)
	return m
}
