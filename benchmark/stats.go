package main

import (
	"math"
	"sort"
)

// percentile returns the exact q-quantile of an ascending sample by the
// nearest-rank rule: the smallest value with at least q of the sample at or
// below it. It returns 0 for an empty sample.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count) without reordering xs.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailCandidates are the percentiles a report may quote, ascending.
var tailCandidates = []float64{0.50, 0.90, 0.95, 0.99, 0.999}

// highestSupported returns the highest candidate percentile that still has
// at least ten samples beyond it in a sample of n, or 0 when even the median
// has fewer.
func highestSupported(n int) float64 {
	best := 0.0
	for _, q := range tailCandidates {
		if float64(n)*(1-q) >= 10-1e-9 { // 100 × (1 − 0.9) is a hair under 10 in floating point
			best = q
		}
	}
	return best
}

// spread is the interquartile range of xs as a share of its median, the
// run-to-run steadiness figure the compare subcommand judges against a
// metric's bound. Fewer than four values have no quartiles: it returns 0.
func spread(xs []float64) float64 {
	q1, q3, ok := quartiles(xs)
	m := median(xs)
	if !ok || m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// quartiles returns the first and third quartile by the exclusive method
// (the default of Python's statistics.quantiles(n=4)).
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	n := len(xs)
	if n < 4 {
		return 0, 0, false
	}
	s := sortedCopy(xs)
	at := func(p float64) float64 {
		h := p * float64(n+1)
		lo := int(math.Floor(h))
		if lo < 1 {
			return s[0]
		}
		if lo >= n {
			return s[n-1]
		}
		return s[lo-1] + (h-float64(lo))*(s[lo]-s[lo-1])
	}
	return at(0.25), at(0.75), true
}
