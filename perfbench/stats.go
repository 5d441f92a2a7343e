package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must rank above a reported high
// percentile: a p90 needs at least 100 samples, a p99 at least 1000.
const minBeyond = 10

// sample is a set of observations of one quantity.
type sample []float64

func (s sample) sorted() sample {
	c := append(sample(nil), s...)
	sort.Float64s(c)
	return c
}

// rank returns the nearest-rank p-quantile (0 < p <= 1) of s: the
// smallest observation with at least a share p of the observations at
// or below it. ok reports whether at least minBeyond observations rank
// above it, the rule for quoting a high percentile. An empty sample
// returns (0, false).
func (s sample) rank(p float64) (v float64, ok bool) {
	n := len(s)
	if n == 0 {
		return 0, false
	}
	c := s.sorted()
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return c[r-1], n-r >= minBeyond
}

// median is the middle observation, or the mean of the two middle ones,
// quoted whatever the sample size (0 when empty). Pass medians use it:
// with an even number of passes it favours neither the faster nor the
// slower of the middle two.
func (s sample) median() float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	c := s.sorted()
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// max returns the largest observation (0 when empty).
func (s sample) max() float64 {
	m := 0.0
	for _, v := range s {
		if v > m {
			m = v
		}
	}
	return m
}

// ms and us convert durations to float milliseconds and microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns num/den, or 0 when den is 0 (a layer the workload never
// reached).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
