package main

import (
	"fmt"
	"math/rand"
	"time"

	"esti/internal/kvcache"
	"esti/internal/quant"
	"esti/internal/reference"
	"esti/internal/simd"
	"esti/internal/tensor"
)

// probeShape is what a workload's kernel probes run at.
type probeShape struct {
	decodeM  int  // activation rows of a decode GEMM (tokens in the step)
	prefillM int  // activation rows of a prefill GEMM (mean chunk)
	ctx      int  // attended positions of a decode query (mean context)
	int8KV   bool // attention reads an int8 cache
}

// timePerCall runs fn in batches of at least 10 ms and returns the median
// batch's time per call in microseconds.
func timePerCall(fn func()) float64 {
	fn()
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if time.Since(t0) >= 10*time.Millisecond {
			break
		}
		n *= 2
	}
	var per []float64
	for b := 0; b < 5; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/1e3/float64(n))
	}
	return percentile(per, 0.5)
}

// runProbes times the kernel layers standalone at one chip's shard of the
// workload's shapes: the 2D weight-stationary FFN input GEMM (E/X rows of
// F/(Y·Z) columns, float and int8) at decode and prefill row counts, and
// one decode query's attention over the workload's mean context. FLOPs and
// bytes are computed from the tensor shapes, not measured.
func runProbes(ps probeShape, m map[string]Metric) {
	rng := rand.New(rand.NewSource(7))
	k := serveModel.DModel / serveTorus.X
	n := serveModel.DFF / (serveTorus.Y * serveTorus.Z)
	w := tensor.New(k, n).FillRand(rng, 0.1)
	qw := quant.Quantize(w)

	gemm := func(rows int) (us float64, flops, bytes float64) {
		a := tensor.New(rows, k).FillRand(rng, 1)
		dst := tensor.New(rows, n)
		us = timePerCall(func() { tensor.MatMulInto(dst, a, w) })
		return us, 2 * float64(rows*k*n), 4 * float64(rows*k+k*n+rows*n)
	}
	dUs, dFlops, dBytes := gemm(ps.decodeM)
	pUs, pFlops, pBytes := gemm(ps.prefillM)
	m["tensor.matmul.decode_us"] = Metric{dUs, "us"}
	m["tensor.matmul.decode_flops"] = Metric{dFlops, "flop"}
	m["tensor.matmul.decode_bytes"] = Metric{dBytes, "B"}
	m["tensor.matmul.prefill_us"] = Metric{pUs, "us"}
	m["tensor.matmul.prefill_flops"] = Metric{pFlops, "flop"}
	m["tensor.matmul.prefill_bytes"] = Metric{pBytes, "B"}
	m["tensor.matmul.gflops"] = Metric{pFlops / pUs / 1e3, "GFLOP/s"}

	a := tensor.New(ps.decodeM, k).FillRand(rng, 1)
	dst := tensor.New(ps.decodeM, n)
	m["quant.matmul.decode_us"] = Metric{timePerCall(func() { quant.MatMulInto(dst, a, qw) }), "us"}
	m["quant.matmul.decode_bytes"] = Metric{4*float64(ps.decodeM*k+ps.decodeM*n) + float64(k*n) + 4*float64(n), "B"}

	dh := serveModel.HeadDim
	kvw := serveModel.KVHeads * dh
	hq := serveModel.Heads * dh
	var cache *kvcache.Cache
	rowBytes := float64(4 * kvw)
	if ps.int8KV {
		cache = kvcache.NewInt8(1, 1, ps.ctx, kvw)
		rowBytes = float64(kvw + 4)
	} else {
		cache = kvcache.New(1, 1, ps.ctx, kvw)
	}
	kv := tensor.New(ps.ctx, kvw).FillRand(rng, 1)
	cache.AppendSeq(0, 0, kv, kv, ps.ctx)
	cache.AdvanceSeq(0, ps.ctx-1)
	q := tensor.New(1, hq).FillRand(rng, 1)
	out := tensor.New(1, hq)
	var scr reference.AttnScratch
	scr.Reserve(ps.ctx)
	attUs := timePerCall(func() { reference.AttendSeqInto(out, dh, q, cache, 0, 0, 1, &scr) })
	attBytes := 2 * float64(ps.ctx) * rowBytes
	m["reference.attend.us_per_call"] = Metric{attUs, "us"}
	m["reference.attend.flops"] = Metric{4 * float64(hq*ps.ctx), "flop"}
	m["reference.attend.bytes"] = Metric{attBytes, "B"}
	m["reference.attend.gbps"] = Metric{attBytes / attUs / 1e3, "GB/s"}

	avx2 := 0.0
	if simd.Kind() == "avx2" {
		avx2 = 1
	}
	m["simd.avx2"] = Metric{avx2, "bool"}
}

// probeNotes describes the probe figures for the per-layer summary, with
// the kernel set they ran on.
func probeNotes(m map[string]Metric) []string {
	return []string{
		fmt.Sprintf("kernels: simd.Kind() = %s", simd.Kind()),
		fmt.Sprintf("tensor.matmul decode: %.2f us, %.0f flop, %.0f B per call; prefill: %.2f us, %.0f flop, %.0f B per call (%.2f GFLOP/s)",
			m["tensor.matmul.decode_us"].Value, m["tensor.matmul.decode_flops"].Value, m["tensor.matmul.decode_bytes"].Value,
			m["tensor.matmul.prefill_us"].Value, m["tensor.matmul.prefill_flops"].Value, m["tensor.matmul.prefill_bytes"].Value,
			m["tensor.matmul.gflops"].Value),
		fmt.Sprintf("quant.matmul decode: %.2f us, %.0f B per call", m["quant.matmul.decode_us"].Value, m["quant.matmul.decode_bytes"].Value),
		fmt.Sprintf("reference.attend: %.2f us, %.0f flop, %.0f B per call (%.2f GB/s)",
			m["reference.attend.us_per_call"].Value, m["reference.attend.flops"].Value, m["reference.attend.bytes"].Value,
			m["reference.attend.gbps"].Value),
	}
}
