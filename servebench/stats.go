package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0..1) of xs by linear interpolation
// between order statistics; xs is not modified. It is NaN for no data.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	h := p * float64(len(xs)-1)
	lo := int(math.Floor(h))
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (h-float64(lo))*(xs[lo+1]-xs[lo])
}

// tailLadder is the percentiles a timing may be reported at, lowest first.
var tailLadder = []float64{0.5, 0.75, 0.9, 0.95, 0.99, 0.999}

// tailPercentile is the reporting rule for a timing with n samples: the
// highest percentile of tailLadder with at least ten samples beyond it,
// and the median alone under forty samples, where a higher percentile
// would rest on too few samples to be a tail. It returns 0 for no samples.
func tailPercentile(n int) float64 {
	if n == 0 {
		return 0
	}
	if n < 40 {
		return 0.5
	}
	best := 0.5
	for _, p := range tailLadder {
		// n·(1-p) ≥ 10, in integers to dodge rounding at the boundary.
		beyond := float64(n) - math.Ceil(p*float64(n)-1e-9)
		if beyond >= 10 {
			best = p
		}
	}
	return best
}

// quartiles returns the first, second and third quartile of xs by the
// method of Python's statistics.quantiles(xs, n=4) (the "exclusive"
// method), so spreads computed here match ones computed from the JSON
// output with Python. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}
