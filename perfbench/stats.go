package main

import (
	"math"
	"sort"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie strictly above the sample it selects, so a
// single outlier cannot be the reported tail.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs and
// whether it satisfies the percentile rule. xs need not be sorted; it is
// not modified.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedPercentile(s, q)
}

// sortedPercentile is percentile on an already sorted slice.
func sortedPercentile(s []float64, q float64) (float64, bool) {
	if len(s) == 0 {
		return math.NaN(), false
	}
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx], len(s)-1-idx >= minBeyond
}

// minSamples is the smallest sample count for which the q-quantile meets
// the percentile rule.
func minSamples(q float64) int {
	for n := 1; ; n++ {
		idx := int(math.Ceil(q*float64(n))) - 1
		if idx < 0 {
			idx = 0
		}
		if n-1-idx >= minBeyond {
			return n
		}
	}
}

// median is the middle value of xs (mean of the two middle values for an
// even count); NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
