package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (mean of the two middle values for
// an even count), or 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), so the
// spread this program prints is the spread the acceptance driver computes.
// Fewer than two samples have no spread: both quartiles are the sample.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	if len(xs) == 1 {
		return xs[0], xs[0]
	}
	s := sorted(xs)
	n := len(s)
	at := func(i int) float64 { // i-th of the 4 cut points, 1-based
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
	return at(1), at(3)
}

// iqr is the distance between the first and the third quartile.
func iqr(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return q3 - q1
}

// percentile returns the p-th percentile (0 < p < 100) of xs by linear
// interpolation between closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailLadder lists the tail percentiles a timing may be reported at.
var tailLadder = []float64{99, 95, 90, 75}

// tailPercentile picks the highest percentile, no higher than limit, that
// has at least ten samples beyond it, and returns it with its value. A
// sample too small for any tail (fewer than 40 values) reports its median.
func tailPercentile(xs []float64, limit float64) (p, v float64) {
	for _, cand := range tailLadder {
		if cand > limit {
			continue
		}
		if float64(len(xs))*(100-cand)/100 >= 10 {
			return cand, percentile(xs, cand)
		}
	}
	return 50, median(xs)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
