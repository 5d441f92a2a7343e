package main

import "testing"

func seq(n int) sample {
	s := make(sample, n)
	for i := range s {
		s[i] = float64(n - i) // descending: rank must sort
	}
	return s
}

func TestRankNearestRank(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1, 0.5, 1, false},
		{4, 0.5, 2, false},   // ceil(0.5*4) = 2nd
		{5, 0.5, 3, false},   // ceil(2.5) = 3rd
		{20, 0.5, 10, true},  // 10 samples above the 10th
		{19, 0.5, 10, false}, // only 9 above
		{100, 0.9, 90, true}, // 10 above the 90th
		{99, 0.9, 90, false}, // ceil(89.1) = 90th, 9 above
		{1000, 0.99, 990, true},
		{100, 1, 100, false},
		{10, 0.01, 1, false},
	}
	for _, c := range cases {
		got, ok := seq(c.n).rank(c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("n=%d p=%g: got (%g, %v), want (%g, %v)", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	if v, ok := sample(nil).rank(0.5); v != 0 || ok {
		t.Errorf("empty sample: got (%g, %v)", v, ok)
	}
}

func TestRankExactProducts(t *testing.T) {
	// 0.9*10 is 9.000000000000002 in floating point; the nearest rank
	// is still the 9th, not the 10th.
	if got, _ := seq(10).rank(0.9); got != 9 {
		t.Errorf("p90 of 1..10 = %g, want 9", got)
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		s    sample
		want float64
	}{
		{nil, 0},
		{sample{7}, 7},
		{sample{3, 1, 2}, 2},
		{sample{5, 1, 4, 2}, 3},
	}
	for _, c := range cases {
		if got := c.s.median(); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.s, got, c.want)
		}
	}
}
