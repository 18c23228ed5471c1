package main

import (
	"math"
	"sort"
)

// summary is one metric's distribution over the reps of a run.
type summary struct {
	Unit string `json:"unit"`
	// Kind is "host" (host time or memory; noisy, compared against a
	// bound), "model" (simulated result; identical in every rep of a
	// seed) or "layer" (per-layer cost; reported, never gated).
	Kind   string    `json:"kind"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarize(unit, kind string, values []float64) summary {
	s := summary{Unit: unit, Kind: kind, N: len(values), Values: values}
	s.Q1, s.Median, s.Q3 = quartiles(values)
	return s
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

// quartiles returns the first quartile, median and third quartile of
// xs. The quartiles use the same exclusive-interpolation method as
// Python's statistics.quantiles(xs, n=4), so a report's spread reads
// the same as one computed from its raw values by that function.
func quartiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), med, q(3)
}
