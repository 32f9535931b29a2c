package main

import (
	"math/rand"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	samples := func() []int64 {
		s := make([]int64, 100)
		for i := range s {
			s[i] = int64(100 - i) // 100..1, unsorted
		}
		return s
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{
		{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}, {99.5, 100},
	} {
		if got := percentile(samples(), c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("percentile(nil) = %d, want 0", got)
	}
	if got := percentile([]int64{7}, 99); got != 7 {
		t.Errorf("percentile([7]) = %d, want 7", got)
	}
}

// A 10% move in the tail must show as a 10% move in p99, not as a jump
// to the next power of two.
func TestPercentileIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := make([]int64, 10_000)
	for i := range base {
		base[i] = 1000 + rng.Int63n(1000)
	}
	slower := make([]int64, len(base))
	for i, v := range base {
		slower[i] = v * 11 / 10
	}
	p, q := percentile(base, 99), percentile(slower, 99)
	if q != p*11/10 {
		t.Errorf("p99 %d → %d after a 10%% slowdown, want %d", p, q, p*11/10)
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := median(xs); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
	if xs[0] != 3 {
		t.Errorf("median reordered its input: %v", xs)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", got)
	}
}
