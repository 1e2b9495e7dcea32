package main

import (
	"esti/internal/kvcache"
	"math"
	"reflect"
	"testing"
	"time"
)

// TestDryRunDeterministic pins the schedule guard's premise: the iteration
// loop's counts and slot assignment depend only on the request stream, so
// two dry runs of one seed agree exactly. A different seed changes the
// stream's tokens but not its schedule.
func TestDryRunDeterministic(t *testing.T) {
	for name, sp := range engineSpecs {
		a := genRequests(sp, 3)
		b := genRequests(sp, 3)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: one seed gave two request streams", name)
		}
		other := genRequests(sp, 4)
		if reflect.DeepEqual(a, other) {
			t.Fatalf("%s: seeds 3 and 4 gave the same stream", name)
		}
		c1, tl1 := runLoop(a, slots, sp.prefillBudget, newDryExec(sp), nil, nil)
		c2, tl2 := runLoop(b, slots, sp.prefillBudget, newDryExec(sp), nil, nil)
		if c4, _ := runLoop(other, slots, sp.prefillBudget, newDryExec(sp), nil, nil); !c1.same(c4) {
			t.Fatalf("%s: seeds 3 and 4 ran different schedules: %s vs %s", name, summaryCounts(c1), summaryCounts(c4))
		}
		if !c1.same(c2) || !reflect.DeepEqual(tl1.Slot, tl2.Slot) || !reflect.DeepEqual(tl1.Chunks, tl2.Chunks) {
			t.Fatalf("%s: dry runs differ: %s vs %s", name, summaryCounts(c1), summaryCounts(c2))
		}
		if c1.Completed != len(a) {
			t.Fatalf("%s: %d of %d requests completed", name, c1.Completed, len(a))
		}
		gen, prompt := 0, 0
		for _, r := range a {
			gen += r.Gen
			prompt += len(r.Prompt)
		}
		if c1.GenTokens != gen || c1.PromptTokens != prompt || c1.PrefillTokens+c1.CachedTokens != prompt {
			t.Fatalf("%s: tokens %d+%d (computed %d, cached %d), stream has %d+%d",
				name, c1.PromptTokens, c1.GenTokens, c1.PrefillTokens, c1.CachedTokens, prompt, gen)
		}
		// The run's timeline is one round long, so one round must carry
		// the samples the reported percentiles need.
		if tailPercentile(len(a)) < 0.9 || tailPercentile(gen-len(a)) < 0.99 {
			t.Fatalf("%s: %d TTFTs and %d gaps per round do not support a p90 and a p99", name, len(a), gen-len(a))
		}
		split := false
		for _, i := range checkSample(a, tl1, len(sp.templates)) {
			split = split || tl1.Chunks[i] > 1
		}
		if !split {
			t.Fatalf("%s: no checked request was prefilled in more than one chunk", name)
		}
		t.Logf("%s: %s, %d cached, occupancy %.2f", name, summaryCounts(c1), c1.CachedTokens,
			float64(c1.OccupiedSlots)/float64(c1.Iterations))
	}
}

// TestDryRunPrefixHits checks that the templates workload's dry store hits
// and evicts: the budget is below the templates' total size.
func TestDryRunPrefixHits(t *testing.T) {
	sp := engineSpecs["templates"]
	total := 0
	for _, n := range sp.templates {
		total += n
	}
	if sp.prefixBudgetTk >= total {
		t.Fatalf("prefix budget %d tokens holds all templates (%d)", sp.prefixBudgetTk, total)
	}
	d := newDryExec(sp)
	c, _ := runLoop(genRequests(sp, 1), slots, sp.prefillBudget, d, nil, nil)
	st := d.store.Stats()
	if st.Hits == 0 || st.Evictions == 0 || c.CachedTokens == 0 {
		t.Fatalf("hits %d, evictions %d, cached tokens %d", st.Hits, st.Evictions, c.CachedTokens)
	}
}

// recordExec is a dry executor that logs the calls it receives.
type recordExec struct {
	dryExec
	prefills [][3]int // request, lo, hi
	decodes  []int    // active slots per decode call
}

func (r *recordExec) Prefill(slot int, q *Request, lo, hi int) int {
	r.prefills = append(r.prefills, [3]int{q.ID, lo, hi})
	return 0
}

func (r *recordExec) Decode(last []int, active []bool, next []int) {
	n := 0
	for _, on := range active {
		if on {
			n++
		}
	}
	r.decodes = append(r.decodes, n)
}

// TestLoopSchedule walks a hand-sized stream through the loop: FIFO
// admission, the prefill budget split across iterations, a first token
// that sits out its own iteration's decode, and an idle gap skipped.
func TestLoopSchedule(t *testing.T) {
	reqs := []Request{
		{ID: 0, Due: 0, Prompt: make([]int, 5), Template: -1, Gen: 3},
		{ID: 1, Due: 0, Prompt: make([]int, 2), Template: -1, Gen: 2},
		{ID: 2, Due: 50, Prompt: make([]int, 1), Template: -1, Gen: 1},
	}
	ex := &recordExec{dryExec: dryExec{held: make([]*kvcache.Prefix, 2)}}
	c, tl := runLoop(reqs, 2, 4, ex, nil, nil)
	wantPrefills := [][3]int{{0, 0, 4}, {0, 4, 5}, {1, 0, 2}, {2, 0, 1}}
	if !reflect.DeepEqual(ex.prefills, wantPrefills) {
		t.Fatalf("prefills %v, want %v", ex.prefills, wantPrefills)
	}
	// it0: prefill r0[0:4]; it1: r0 done (first token) + r1 done; no decode
	// yet; it2: decode r0,r1 (r1 completes); it3: decode r0 (completes);
	// it50: r2 prefill only, Gen 1.
	if !reflect.DeepEqual(ex.decodes, []int{2, 1}) {
		t.Fatalf("decodes %v, want [2 1]", ex.decodes)
	}
	if c.Iterations != 5 || c.PrefillChunks != 4 || c.DecodeCalls != 2 || c.GenTokens != 6 {
		t.Fatalf("counts: %s", summaryCounts(c))
	}
	if tl.Slot[0] != 0 || tl.Slot[1] != 1 || tl.Slot[2] != 0 {
		t.Fatalf("slots %v", tl.Slot)
	}
	if !reflect.DeepEqual(tl.Chunks, []int{2, 1, 1}) {
		t.Fatalf("chunks %v, want [2 1 1]", tl.Chunks)
	}
}

// TestEngineMetricsMedianSteps checks that the run's timeline takes each
// step at its median over the rounds: a stall that hits one round at one
// step leaves the figures as the clean rounds give them.
func TestEngineMetricsMedianSteps(t *testing.T) {
	reqs := []Request{
		{ID: 0, Due: 0, Prompt: make([]int, 2), Template: -1, Gen: 3},
		{ID: 1, Due: 0, Prompt: make([]int, 2), Template: -1, Gen: 3},
	}
	c, tl := runLoop(reqs, 2, 4, &recordExec{dryExec: dryExec{held: make([]*kvcache.Prefix, 2)}}, nil, nil)
	stamped := func(stall int) round {
		r := *tl
		r.Stamps = make([]time.Duration, len(tl.Stamps))
		for j := range r.Stamps {
			r.Stamps[j] = time.Duration(j+1) * time.Millisecond
			if j >= stall {
				r.Stamps[j] += 50 * time.Millisecond
			}
		}
		return round{counts: c, tl: &r, cpu: time.Second}
	}
	clean := engineMetrics([]round{stamped(len(tl.Stamps)), stamped(len(tl.Stamps)), stamped(len(tl.Stamps))})
	stalled := engineMetrics([]round{stamped(len(tl.Stamps)), stamped(2), stamped(len(tl.Stamps) - 1)})
	if !reflect.DeepEqual(clean, stalled) {
		t.Fatalf("stalls in single rounds moved the figures:\nclean   %v\nstalled %v", clean, stalled)
	}
	// Stamps: it0 start, r0 first, r1 first, it1 start, decode, it2 start,
	// decode; each 1 ms apart. r0's TTFT spans 1 ms, r1's 2 ms.
	if got := clean["ttft_p50_ms"].Value; got != 1.5 {
		t.Fatalf("ttft_p50_ms = %v, want 1.5", got)
	}
	if got := clean["tok_per_s"].Value; math.Abs(got-10.0/7*1e3) > 1e-9 {
		t.Fatalf("tok_per_s = %v, want %v", got, 10.0/7*1e3)
	}
}
