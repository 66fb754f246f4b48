package main

import (
	"fmt"
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below
// it. xs need not be sorted; an empty sample yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// The epsilon keeps p99.9 of 10000 at rank 9990: 99.9/100*10000 is
	// not exactly 9990 in floating point.
	rank := int(math.Ceil(p*float64(len(s))/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailLadder is the percentiles the tail rule chooses from, ascending.
var tailLadder = []float64{50, 75, 80, 90, 95, 99, 99.9}

// tailPercentile picks the highest percentile of the ladder that still
// has at least ten of the n samples beyond it, so the reported tail is
// never the opinion of one or two outliers: p75 at 40 samples, p80 at
// 50, p99 at 1000. Below 20 samples nothing qualifies and the median is
// all the sample supports.
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// pctName renders a percentile as its usual label: 75 -> "p75", 99.9 ->
// "p99.9".
func pctName(p float64) string { return fmt.Sprintf("p%g", p) }

// quartiles returns the first, second and third quartile of xs the way
// Python's statistics.quantiles(xs, n=4) does (the "exclusive" method:
// the i-th cut sits at position i*(len+1)/4 of the sorted sample,
// linearly interpolated and clamped to the ends). The benchmark's
// acceptance rule is stated in those terms, so the comparer must agree
// with it digit for digit. A single sample is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise figure every bound is judged against.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}
