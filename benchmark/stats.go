package main

import (
	"math"
	"sort"
)

// summary is what the report prints for one metric on one workload.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// TailPct/Tail are the highest percentile that still has at least ten
	// samples beyond it (0 when even p50 does not) and its value.
	TailPct float64 `json:"tail_pct,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), because that is how the driver measures spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	m := len(s)
	if m == 0 {
		return 0, 0, 0
	}
	if m == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// tailPercentiles are tried from the highest down.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// rank is the nearest-rank position (1-based) of the p-th percentile among
// n samples; the epsilon keeps 99.9 % of 10000 at 9990, not 9991.
func rank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// percentile is the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	idx := rank(p, len(s)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// highestValidPercentile returns the highest percentile of xs that has at
// least ten samples beyond it, and its value; ok is false when not even
// the median has.
func highestValidPercentile(xs []float64) (p, v float64, ok bool) {
	for _, p := range tailPercentiles {
		// Samples strictly beyond the nearest-rank position.
		if len(xs)-rank(p, len(xs)) >= 10 {
			return p, percentile(xs, p), true
		}
	}
	return 0, 0, false
}

func summarize(xs []float64) summary {
	q1, q2, q3 := quartiles(xs)
	s := summary{N: len(xs), Median: q2, Q1: q1, Q3: q3}
	if p, v, ok := highestValidPercentile(xs); ok {
		s.TailPct, s.Tail = p, v
	}
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}
