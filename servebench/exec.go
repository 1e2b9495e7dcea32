package main

import (
	"runtime/metrics"

	"esti/internal/engine"
	"esti/internal/kvcache"
	"esti/internal/model"
	"esti/internal/sampling"
	"esti/internal/tensor"
)

// engineExec runs the loop's decisions on the sharded engine.
type engineExec struct {
	eng    *engine.Engine
	refs   []*engine.PrefixRef
	logits *tensor.Mat
	prefix bool
	tr     *Tracer
	// Counters read around each call, in traced runs only.
	meshBytes, meshInt8, meshMsgs int64 // across decode calls
	prefillBytes                  int64
	decodeAllocs                  uint64
	decodeCtx                     int
	allocSample                   []metrics.Sample
}

func newEngineExec(eng *engine.Engine, prefix bool, tr *Tracer) *engineExec {
	x := &engineExec{eng: eng, refs: make([]*engine.PrefixRef, eng.Batch()), prefix: prefix, tr: tr,
		logits: tensor.New(eng.Batch(), serveModel.Vocab)}
	if tr != nil {
		x.allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	}
	return x
}

func (x *engineExec) Admit(slot int, r *Request) int {
	if !x.prefix {
		return 0
	}
	sp := x.tr.Begin("kvcache.prefix.acquire", r.ID)
	ref := x.eng.AcquirePrefix(r.Prompt)
	x.tr.End(sp)
	x.refs[slot] = ref
	if ref == nil {
		return 0
	}
	return ref.Len()
}

func (x *engineExec) Prefill(slot int, r *Request, lo, hi int) int {
	sp := x.tr.Begin("engine.prefill", r.ID)
	var b0 int64
	if x.tr != nil {
		b0 = x.eng.Mesh().BytesSent()
	}
	var logits *tensor.Mat
	if ref := x.refs[slot]; ref != nil {
		x.refs[slot] = nil // the slot owns the prefix's references now
		logits = x.eng.PrefillSlotFrom(slot, ref, r.Prompt[lo:hi])
	} else {
		logits = x.eng.PrefillSlot(slot, r.Prompt[lo:hi])
	}
	if x.tr != nil {
		x.prefillBytes += x.eng.Mesh().BytesSent() - b0
	}
	x.tr.EndWork(sp, prefillFlops(lo, hi-lo))
	if hi < len(r.Prompt) {
		return 0
	}
	sp = x.tr.Begin("sampling.greedy", r.ID)
	tok := sampling.Greedy(logits.Row(logits.Rows - 1))
	x.tr.End(sp)
	return tok
}

func (x *engineExec) Remember(slot int, r *Request, n int) {
	sp := x.tr.Begin("kvcache.prefix.insert", r.ID)
	// A budget refusal is not an error: the admission already succeeded,
	// the prefix just is not kept (engine.PrefillSlotCached does the same).
	_ = x.eng.CachePrefix(slot, r.Prompt[:n])
	x.tr.End(sp)
}

func (x *engineExec) Decode(last []int, active []bool, next []int) {
	var flops float64
	var b0, i0, m0 int64
	var a0 uint64
	if x.tr != nil {
		for s, on := range active {
			if on {
				ctx := x.eng.SlotLen(s) + 1
				x.decodeCtx += ctx
				flops += decodeFlops(ctx)
			}
		}
		m := x.eng.Mesh()
		b0, i0, m0 = m.BytesSent(), m.Int8BytesSent(), m.MessagesSent()
		metrics.Read(x.allocSample)
		a0 = x.allocSample[0].Value.Uint64()
	}
	sp := x.tr.Begin("engine.decode", -1)
	x.eng.DecodeSlotsInto(x.logits, last, active)
	x.tr.EndWork(sp, flops)
	if x.tr != nil {
		metrics.Read(x.allocSample)
		x.decodeAllocs += x.allocSample[0].Value.Uint64() - a0
		m := x.eng.Mesh()
		x.meshBytes += m.BytesSent() - b0
		x.meshInt8 += m.Int8BytesSent() - i0
		x.meshMsgs += m.MessagesSent() - m0
	}
	for s, on := range active {
		if on {
			sp := x.tr.Begin("sampling.greedy", -1)
			next[s] = sampling.Greedy(x.logits.Row(s))
			x.tr.End(sp)
		}
	}
}

func (x *engineExec) Release(slot int, r *Request) {
	sp := x.tr.Begin("engine.release", r.ID)
	x.eng.ReleaseSlot(slot)
	x.tr.End(sp)
}

// dryExec is the no-op executor of the schedule guard. It needs no engine:
// prefix-cache decisions come from a real kvcache.PrefixStore one layer
// deep and one value wide, whose budget holds exactly as many tokens as
// the engine's per-chip store, so its hits and evictions are the engine's.
type dryExec struct {
	store *kvcache.PrefixStore
	held  []*kvcache.Prefix
}

func newDryExec(sp *engineSpec) *dryExec {
	d := &dryExec{held: make([]*kvcache.Prefix, slots)}
	if len(sp.templates) > 0 {
		int8KV := sp.opts.KVDType == model.Int8
		budget := sp.prefixBudgetTk * prefixBytesPerToken(int8KV, 1, 1)
		if int8KV {
			d.store = kvcache.NewPrefixStoreInt8(1, 1, budget)
		} else {
			d.store = kvcache.NewPrefixStore(1, 1, budget)
		}
	}
	return d
}

func (d *dryExec) Admit(slot int, r *Request) int {
	if d.store == nil || len(r.Prompt) < 2 {
		return 0
	}
	p, n := d.store.Acquire(r.Prompt[:len(r.Prompt)-1])
	d.held[slot] = p
	return n
}

func (d *dryExec) Prefill(slot int, r *Request, lo, hi int) int { return 0 }

func (d *dryExec) Remember(slot int, r *Request, n int) {
	k := []*tensor.Mat{tensor.New(n, 1)}
	v := []*tensor.Mat{tensor.New(n, 1)}
	_, _ = d.store.Insert(r.Prompt[:n], k, v) // refusals mirror the engine's
}

func (d *dryExec) Decode(last []int, active []bool, next []int) {}

func (d *dryExec) Release(slot int, r *Request) {
	if p := d.held[slot]; p != nil {
		d.held[slot] = nil
		if err := d.store.Release(p); err != nil {
			panic(err)
		}
	}
}

// matmulFlops is the per-token FLOPs of the model's projections, FFN and
// logits: two FLOPs per weight.
func matmulFlops() float64 {
	c := serveModel
	e, hq, kv := float64(c.DModel), float64(c.Heads*c.HeadDim), float64(c.KVHeads*c.HeadDim)
	ffn := 2.0
	if c.FFNKind == model.SwiGLU {
		ffn = 3
	}
	perLayer := e*hq + 2*e*kv + hq*e + ffn*e*float64(c.DFF)
	return 2 * (float64(c.Layers)*perLayer + e*float64(c.Vocab))
}

// attnFlops is the attention FLOPs of one query position over ctx keys:
// scores and the weighted value sum, every head, every layer.
func attnFlops(ctx int) float64 {
	c := serveModel
	return 4 * float64(c.Layers*c.Heads*c.HeadDim) * float64(ctx)
}

// prefillFlops is the model FLOPs of prefilling n tokens after past
// committed ones (causal: token i attends past+i+1 positions).
func prefillFlops(past, n int) float64 {
	attended := n*past + n*(n+1)/2
	return float64(n)*matmulFlops() + attnFlops(attended)
}

// decodeFlops is the model FLOPs of one decode token at context ctx.
func decodeFlops(ctx int) float64 { return matmulFlops() + attnFlops(ctx) }
