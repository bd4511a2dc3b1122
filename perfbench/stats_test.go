package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed: percentile must sort
	}
	return xs
}

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{100, 0.90, 90, true},   // 10 samples above the 90th
		{99, 0.90, 90, false},   // only 9 above
		{1000, 0.99, 990, true}, // 10 above the 990th
		{999, 0.99, 990, false}, // 9 above
		{575, 0.99, 570, false}, // the serve low phase: p99 is not reportable
		{11, 0.50, 6, false},    // 5 above the median
		{21, 0.50, 11, true},    // 10 above
		{1, 0.99, 1, false},
	} {
		got, ok := percentile(seq(tc.n), tc.q)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(n=%d, q=%g) = %g, %v; want %g, %v", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("empty sample reported a percentile")
	}
}

func TestMinSamplesMatchesRule(t *testing.T) {
	for _, q := range []float64{0.5, 0.9, 0.99} {
		n := minSamples(q)
		if _, ok := percentile(seq(n), q); !ok {
			t.Errorf("q=%g: %d samples should satisfy the rule", q, n)
		}
		if _, ok := percentile(seq(n-1), q); ok {
			t.Errorf("q=%g: %d samples should not satisfy the rule", q, n-1)
		}
	}
	if minSamples(0.99) != 1000 || minSamples(0.9) != 100 {
		t.Errorf("minSamples = %d (p99), %d (p90); want 1000, 100", minSamples(0.99), minSamples(0.9))
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %g", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN")
	}
}
