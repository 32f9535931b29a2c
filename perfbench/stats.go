package main

import (
	"slices"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// samples: the smallest sample with at least p% of all samples at or
// below it. It sorts samples in place. Exact ranks are what make a 10%
// bound on p99 meaningful; a log₂ histogram can only move in 2× steps.
func percentile(samples []int64, p float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	if !slices.IsSorted(samples) {
		slices.Sort(samples)
	}
	rank := int(float64(len(samples))*p/100 + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(samples) {
		rank = len(samples)
	}
	return samples[rank-1]
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
