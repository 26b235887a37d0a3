package main

import (
	"math"
	"slices"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of an ascending sample by
// the nearest-rank rule: the smallest value with at least q of the sample
// at or below it. An empty sample has no percentiles; it reads 0.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// median returns the middle of xs (mean of the two middle values for an
// even count) without reordering the caller's slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the default "exclusive" method),
// because that is the rule the acceptance check applies to the runs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	if len(xs) < 2 {
		m := median(xs)
		return m, m, m
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	cut := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range of xs as a share of its median: the
// run-to-run noise figure every bound is compared against.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// worsening is how far b's median is on the wrong side of a's, as a share
// of a (negative when b is better). lower says smaller values are better.
func worsening(a, b float64, lower bool) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / math.Abs(a)
	if !lower {
		d = -d
	}
	return d
}
