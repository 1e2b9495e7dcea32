package main

import (
	"fmt"
	"os"
	"slices"
	"sort"

	"esti/internal/reference"
)

// checkSample picks the requests whose outputs are checked: for every
// template the shortest request using it, then for every slot still
// uncovered the shortest request that ran there, then, unless one is in
// already, the shortest request whose prompt was prefilled in more than one
// chunk, so the continuation of a partly filled slot is checked too. Slot
// and chunk assignment are part of the fixed schedule, so the sample is the
// same on every run of a seed.
func checkSample(reqs []Request, tl *Timeline, templates int) []int {
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	cost := func(i int) int { return len(reqs[i].Prompt) + reqs[i].Gen }
	sort.SliceStable(order, func(a, b int) bool { return cost(order[a]) < cost(order[b]) })
	picked := map[int]bool{}
	slotSeen := map[int]bool{}
	var out []int
	take := func(i int) {
		picked[i] = true
		slotSeen[tl.Slot[i]] = true
		out = append(out, i)
	}
	for t := 0; t < templates; t++ {
		for _, i := range order {
			if reqs[i].Template == t {
				take(i)
				break
			}
		}
	}
	for s := 0; s < slots; s++ {
		if slotSeen[s] {
			continue
		}
		for _, i := range order {
			if !picked[i] && tl.Slot[i] == s {
				take(i)
				break
			}
		}
	}
	split := func(i int) bool { return tl.Chunks[i] > 1 }
	if !slices.ContainsFunc(out, split) {
		if k := slices.IndexFunc(order, split); k >= 0 {
			take(order[k])
		}
	}
	sort.Ints(out)
	return out
}

// checkOutputs replays each sampled request's prompt and generated tokens
// through the unsharded reference model in one teacher-forced Prefill and
// requires every generated token to be the reference argmax at its
// position. The engine may pick another token only where its reference
// logit is within the workload's tolerance of the maximum (a near tie
// that sharded summation order or int8 storage can flip); such picks are
// counted and reported.
func checkOutputs(s *session, reqs []Request, tl *Timeline, res *Result) {
	sample := checkSample(reqs, tl, len(s.sp.templates))
	ties, checked := 0, 0
	worst := float32(0)
	for _, i := range sample {
		r := reqs[i]
		out := tl.Output[i]
		if len(out) != r.Gen {
			res.Correct = false
			note("check: request %d generated %d of %d tokens", r.ID, len(out), r.Gen)
			continue
		}
		seq := append(append([]int(nil), r.Prompt...), out[:len(out)-1]...)
		m := reference.New(s.w, 1, len(seq))
		logits := m.Prefill(seq, len(seq))
		for j, tok := range out {
			row := logits.Row(len(r.Prompt) - 1 + j)
			best := 0
			for v := range row {
				if row[v] > row[best] {
					best = v
				}
			}
			checked++
			if tok == best {
				continue
			}
			gap := row[best] - row[tok]
			if gap > worst {
				worst = gap
			}
			if gap <= s.sp.tolerance {
				ties++
				continue
			}
			res.Correct = false
			note("check: request %d token %d is %d (logit %.4f), reference argmax %d (logit %.4f)",
				r.ID, j, tok, row[tok], best, row[best])
		}
	}
	split := 0
	for _, i := range sample {
		if tl.Chunks[i] > 1 {
			split++
		}
	}
	fmt.Fprintf(os.Stderr, "check: %d requests (%d prefilled in several chunks), %d tokens against the reference; %d near-tie picks within %.3g (largest gap %.4g)\n",
		len(sample), split, checked, ties, s.sp.tolerance, worst)
}
