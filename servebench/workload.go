package main

import (
	"fmt"
	"math"
	"math/rand"

	"esti/internal/engine"
	"esti/internal/hardware"
	"esti/internal/model"
	"esti/internal/partition"
)

// serveModel is the one model every engine workload serves: multiquery
// attention at a realistic head dim of 128, small enough in d_model and
// d_ff that a run fits in seconds on a laptop-class CPU.
var serveModel = model.Config{
	Name: "serve", Layers: 2, DModel: 256, DFF: 1024,
	Heads: 8, HeadDim: 128, KVHeads: 1, Attn: model.Multiquery,
	FFNKind: model.SwiGLU, ParallelBlock: true, Vocab: 512,
}

// serveTorus is the 2×2×2 mesh the engine workloads shard onto.
var serveTorus = hardware.Torus{X: 2, Y: 2, Z: 2}

const (
	weightSeed = 1 // model weights are fixed; only the request stream varies
	slots      = 8 // batch: one KV slot per chip under batch-sharded attention
)

// engineSpec is an engine workload: its engine options and the shape of its
// request stream. Lengths spread evenly over [lo, hi].
type engineSpec struct {
	name string
	opts engine.Options
	// requests per round; every round replays the same requests from a
	// fresh engine state.
	requests int
	// rate is the Poisson arrival rate in requests per iteration; 0 queues
	// every request at iteration 0.
	rate           float64
	promptLo       int
	promptHi       int
	genLo, genHi   int
	prefillBudget  int // prompt tokens prefilled per iteration
	templates      []int
	zipfS          float64
	prefixBudgetTk int // per-chip prefix store budget, in tokens
	maxLen         int
	// tolerance is the reference top-two logit gap under which the engine
	// may pick the runner-up without failing the output check.
	tolerance float32
}

var engineSpecs = map[string]*engineSpec{
	"chat": {
		name: "chat",
		opts: engine.Options{FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch},
		// ~0.14 req/iter saturates 8 slots at these lengths; offer ~70%.
		requests: 104, rate: 0.1,
		promptLo: 16, promptHi: 128, genLo: 32, genHi: 80,
		prefillBudget: 128, maxLen: 128 + 80, tolerance: 1e-3,
	},
	"templates": {
		name: "templates",
		opts: engine.Options{FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch,
			Int8Weights: true, KVDType: model.Int8},
		// ~0.25 req/iter saturates 8 slots; offer ~70%.
		requests: 100, rate: 0.18,
		promptLo: 8, promptHi: 40, genLo: 16, genHi: 40,
		prefillBudget: 256,
		// The most popular system prompt is the longest.
		templates: []int{768, 512, 384, 256},
		zipfS:     1.5,
		// Holds any three templates (at most 1664 tokens) but not all four
		// (1920), so the tail evicts and is re-prefilled.
		prefixBudgetTk: 1696,
		maxLen:         768 + 40 + 40, tolerance: 0.25,
	},
	"offline": {
		name: "offline",
		opts: engine.Options{FFN: partition.FFN2DWeightStationary, Attn: partition.AttnShardBatch,
			Streamed: true, WireDType: model.Int8},
		requests: 100, rate: 0,
		promptLo: 96, promptHi: 160, genLo: 8, genHi: 16,
		prefillBudget: 512, maxLen: 160 + 16, tolerance: 0.1,
	},
}

// Request is one generated request. The benchmark only hands the engine
// Prompt; Gen fixes how many tokens are generated (no stop token), so the
// schedule never depends on the model's outputs.
type Request struct {
	ID       int
	Due      int // iteration at which the request arrives
	Prompt   []int
	Template int // index into the workload's templates, -1 for none
	Remember int // leading prompt tokens to cache as a shared prefix
	Gen      int
}

// layoutSeed fixes the order in which requests take their lengths, gaps and
// templates, so every seed runs the same schedule: the same batches, the
// same prefix-cache hits and evictions, the same amount of work.
const layoutSeed = 1

// genRequests draws a workload's requests from seed. Prompt and output
// lengths are an even spread over their ranges and the Poisson gaps the
// quantiles of their exponential law, dealt in an order fixed by
// layoutSeed, as is the template sequence. The seed draws the token
// contents, so runs on different seeds feed the engine different tokens
// along one schedule: a seed that shuffled the order would change the
// prefix hits (by up to a third of the prefilled tokens on templates) and
// with them the work a run does.
func genRequests(sp *engineSpec, seed int64) []Request {
	rng := rand.New(rand.NewSource(seed))
	layout := rand.New(rand.NewSource(layoutSeed))
	vocab := serveModel.Vocab
	randToks := func(n int) []int {
		t := make([]int, n)
		for i := range t {
			t[i] = rng.Intn(vocab)
		}
		return t
	}
	n := sp.requests
	prompts := evenSpread(layout, n, sp.promptLo, sp.promptHi)
	gens := evenSpread(layout, n, sp.genLo, sp.genHi)
	gaps := make([]float64, n)
	if sp.rate > 0 {
		for i := range gaps {
			gaps[i] = -math.Log(1-(float64(i)+0.5)/float64(n)) / sp.rate
		}
		layout.Shuffle(n, func(i, j int) { gaps[i], gaps[j] = gaps[j], gaps[i] })
	}
	bodies := make([][]int, len(sp.templates))
	for i, tl := range sp.templates {
		bodies[i] = randToks(tl)
	}
	var zipf *rand.Zipf
	if len(sp.templates) > 1 {
		zipf = rand.NewZipf(layout, sp.zipfS, 1, uint64(len(sp.templates)-1))
	}
	reqs := make([]Request, n)
	t := 0.0
	for i := range reqs {
		if i > 0 {
			t += gaps[i]
		}
		r := Request{ID: i, Due: int(math.Floor(t)), Template: -1, Gen: gens[i]}
		body := randToks(prompts[i])
		if len(bodies) > 0 {
			k := 0
			if zipf != nil {
				k = int(zipf.Uint64())
			}
			r.Template = k
			r.Remember = len(bodies[k])
			body = append(append([]int(nil), bodies[k]...), body...)
		}
		r.Prompt = body
		if len(r.Prompt)+r.Gen > sp.maxLen {
			panic(fmt.Sprintf("%s: request %d needs %d positions, slots hold %d",
				sp.name, i, len(r.Prompt)+r.Gen, sp.maxLen))
		}
		reqs[i] = r
	}
	return reqs
}

// evenSpread returns n integers spread evenly over [lo, hi], shuffled.
func evenSpread(rng *rand.Rand, n, lo, hi int) []int {
	v := make([]int, n)
	for i := range v {
		v[i] = lo + (2*i+1)*(hi-lo+1)/(2*n)
	}
	rng.Shuffle(n, func(i, j int) { v[i], v[j] = v[j], v[i] })
	return v
}

// prefixBytesPerToken is the K+V bytes one cached prefix token costs in a
// kvcache.PrefixStore of the given depth and width (kvcache.Prefix.Bytes).
func prefixBytesPerToken(int8KV bool, layers, width int) int {
	if int8KV {
		return 2 * layers * (width + 4)
	}
	return 2 * layers * width * 4
}
