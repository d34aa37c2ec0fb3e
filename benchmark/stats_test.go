package main

import (
	"math"
	"testing"
)

func TestPercentileIsExactNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0.50, 5}, {0.90, 9}, {0.95, 10}, {0.99, 10}, {0.10, 1}, {0, 1}, {1, 10},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// The value returned is always a member of the sample.
	ys := []float64{0.3, 0.31, 7.5}
	if got := percentile(ys, 0.5); got != 0.31 {
		t.Errorf("percentile(%v, 0.5) = %v, want 0.31", ys, got)
	}
}

func TestHighestSupportedNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0}, {19, 0}, {20, 0.50}, {99, 0.50}, {100, 0.90}, {199, 0.90},
		{200, 0.95}, {999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := median(xs); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
}

// TestQuartilesMatchPython pins the quartile rule to the one the driver
// uses: statistics.quantiles(values, n=4) with its default exclusive method.
func TestQuartilesMatchPython(t *testing.T) {
	// >>> statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
	// [2.75, 5.5, 8.25]
	q1, q3, ok := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !ok || math.Abs(q1-2.75) > 1e-12 || math.Abs(q3-8.25) > 1e-12 {
		t.Errorf("quartiles(1..10) = %v, %v, %v; want 2.75, 8.25", q1, q3, ok)
	}
	// >>> statistics.quantiles([2.0, 2.1, 1.9, 2.4, 2.0], n=4)
	// [1.95, 2.0, 2.25]
	q1, q3, _ = quartiles([]float64{2.0, 2.1, 1.9, 2.4, 2.0})
	if math.Abs(q1-1.95) > 1e-12 || math.Abs(q3-2.25) > 1e-12 {
		t.Errorf("quartiles = %v, %v; want 1.95, 2.25", q1, q3)
	}
	if _, _, ok := quartiles([]float64{1, 2, 3}); ok {
		t.Error("three values have no quartiles")
	}
	if got := spread([]float64{2.0, 2.1, 1.9, 2.4, 2.0}); math.Abs(got-0.15) > 1e-12 {
		t.Errorf("spread = %v, want 0.15", got)
	}
}
