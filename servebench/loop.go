package main

import (
	"reflect"
	"time"
)

// Executor carries out the engine calls the iteration loop decides on. The
// loop alone decides what runs when; an executor only reports the prefix
// length a cache lookup found and the tokens the model produced, neither of
// which depends on timing.
type Executor interface {
	// Admit binds r to slot and returns how many leading prompt tokens the
	// prefix cache already holds.
	Admit(slot int, r *Request) int
	// Prefill runs prompt[lo:hi] into slot. When hi completes the prompt it
	// returns the request's first generated token.
	Prefill(slot int, r *Request, lo, hi int) int
	// Remember caches prompt[:n] of slot as a shared prefix.
	Remember(slot int, r *Request, n int)
	// Decode advances every active slot by one token, writing the sampled
	// tokens into next.
	Decode(last []int, active []bool, next []int)
	// Release frees slot once r is complete.
	Release(slot int, r *Request)
}

// Counts are the schedule's fixed quantities: the same trace must produce
// the same counts on every run, whatever the machine's speed.
type Counts struct {
	Iterations    int
	PrefillChunks int
	PrefillTokens int // prompt tokens computed (cache hits excluded)
	CachedTokens  int // prompt tokens served from the prefix cache
	DecodeCalls   int
	DecodeTokens  int // slot-steps across all decode calls
	PromptTokens  int // prompt tokens served, cached or not
	GenTokens     int // generated tokens, first tokens included
	Completed     int
	OccupiedSlots int // busy slots summed over iterations
	QueueWaits    []int
}

// Timeline is what one round's wall clock recorded. The loop stamps the
// clock at fixed points (each iteration's start, each completed prompt,
// each decode), so a schedule has the same stamps in the same order on
// every round, and requests refer to their stamps by index.
type Timeline struct {
	T0     time.Time       // when the round began
	Stamps []time.Duration // time since T0 at each stamp, in loop order
	Due    []int           // stamp of the start of the iteration the request was due in
	Tokens [][]int         // stamp at which each generated token was sampled
	Output [][]int         // generated tokens
	Slot   []int           // slot the request ran in
	Chunks []int           // prefill chunks the request's prompt took
}

// at is the wall time of stamp j.
func (tl *Timeline) at(j int) time.Time { return tl.T0.Add(tl.Stamps[j]) }

// clock reads wall time; the dry run passes nil and its stamps read 0.
type clock func() time.Time

type slotState struct {
	r      *Request
	pos    int // prompt tokens committed (cached or prefilled)
	cached int
	gen    int // tokens generated so far
	last   int
}

// runLoop drives one round of reqs (sorted by Due) through ex:
//
//   - every iteration admits due requests FIFO into free slots,
//   - spends a budget of prompt tokens on slots still prefilling, in
//     admission order (a slot whose prompt completes samples its first token
//     and sits out this iteration's decode),
//   - issues one decode over the slots already generating and samples one
//     token for each.
//
// Iterations with nothing to do are skipped to the next arrival and not
// counted. now is nil in the dry run; tr may be nil.
func runLoop(reqs []Request, nSlots, budget int, ex Executor, now clock, tr *Tracer) (Counts, *Timeline) {
	var c Counts
	tl := &Timeline{
		Due:    make([]int, len(reqs)),
		Tokens: make([][]int, len(reqs)),
		Output: make([][]int, len(reqs)),
		Slot:   make([]int, len(reqs)),
		Chunks: make([]int, len(reqs)),
	}
	c.QueueWaits = make([]int, 0, len(reqs))
	st := make([]*slotState, nSlots)
	var queue []int   // request indices waiting for a slot, FIFO
	var filling []int // slots still prefilling, in admission order
	last := make([]int, nSlots)
	next := make([]int, nSlots)
	active := make([]bool, nSlots)
	firstNow := make([]bool, nSlots)
	arrived := 0
	busy := 0
	if now != nil {
		tl.T0 = now()
	}
	stamp := func() int {
		var d time.Duration
		if now != nil {
			d = now().Sub(tl.T0)
		}
		tl.Stamps = append(tl.Stamps, d)
		return len(tl.Stamps) - 1
	}
	for it := 0; c.Completed < len(reqs); it++ {
		if busy == 0 && len(queue) == 0 && arrived < len(reqs) && reqs[arrived].Due > it {
			it = reqs[arrived].Due
		}
		c.Iterations++
		itSpan := tr.Begin("sched.iteration", -1)
		start := stamp()
		for arrived < len(reqs) && reqs[arrived].Due <= it {
			tl.Due[arrived] = start
			queue = append(queue, arrived)
			arrived++
		}
		for s := 0; s < nSlots && len(queue) > 0; s++ {
			if st[s] != nil {
				continue
			}
			i := queue[0]
			queue = queue[1:]
			r := &reqs[i]
			c.QueueWaits = append(c.QueueWaits, it-r.Due)
			cached := ex.Admit(s, r)
			st[s] = &slotState{r: r, pos: cached, cached: cached}
			tl.Slot[i] = s
			c.CachedTokens += cached
			c.PromptTokens += len(r.Prompt)
			filling = append(filling, s)
			busy++
		}
		c.OccupiedSlots += busy

		left := budget
		clear(firstNow)
		kept := filling[:0]
		for _, s := range filling {
			ss := st[s]
			if left == 0 {
				kept = append(kept, s)
				continue
			}
			n := min(left, len(ss.r.Prompt)-ss.pos)
			lo := ss.pos
			tok := ex.Prefill(s, ss.r, lo, lo+n)
			ss.pos += n
			left -= n
			c.PrefillChunks++
			c.PrefillTokens += n
			tl.Chunks[ss.r.ID]++
			if ss.r.Remember > ss.cached && lo < ss.r.Remember && ss.pos >= ss.r.Remember {
				ex.Remember(s, ss.r, ss.r.Remember)
			}
			if ss.pos < len(ss.r.Prompt) {
				kept = append(kept, s)
				continue
			}
			firstNow[s] = true
			ss.last = tok
			ss.gen = 1
			c.GenTokens++
			id := ss.r.ID
			tl.Tokens[id] = append(tl.Tokens[id], stamp())
			tl.Output[id] = append(tl.Output[id], tok)
		}
		filling = kept

		decoding := 0
		for s, ss := range st {
			active[s] = ss != nil && ss.gen > 0 && !firstNow[s] && ss.gen < ss.r.Gen
			last[s] = 0
			if active[s] {
				last[s] = ss.last
				decoding++
			}
		}
		if decoding > 0 {
			ex.Decode(last, active, next)
			t := stamp()
			c.DecodeCalls++
			c.DecodeTokens += decoding
			for s, on := range active {
				if !on {
					continue
				}
				ss := st[s]
				ss.last = next[s]
				ss.gen++
				c.GenTokens++
				id := ss.r.ID
				tl.Tokens[id] = append(tl.Tokens[id], t)
				tl.Output[id] = append(tl.Output[id], next[s])
			}
		}
		for s, ss := range st {
			if ss != nil && ss.gen >= ss.r.Gen {
				ex.Release(s, ss.r)
				st[s] = nil
				busy--
				c.Completed++
			}
		}
		tr.End(itSpan)
	}
	return c, tl
}

// same reports whether two rounds ran the identical schedule.
func (c Counts) same(o Counts) bool { return reflect.DeepEqual(c, o) }
