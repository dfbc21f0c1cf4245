package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 <= p <= 1) of xs by linear
// interpolation between order statistics; NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// median is the 0.5-quantile.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// fastHalfMean is the mean of the samples at or below the median: the
// throughput base. Interference on a shared host only ever adds time,
// so the slow half of a run says more about the neighbours than about
// the code: over runs of the same code the untrimmed mean spread up to
// five times as wide as this does (mpi_halo, 29.6 % against 5.7 %).
func fastHalfMean(xs []float64) float64 {
	m := median(xs)
	var sum float64
	var n int
	for _, x := range xs {
		if x <= m {
			sum += x
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// samplesBeyond counts the samples strictly above the p-quantile: a
// percentile is only quoted with at least ten of them.
func samplesBeyond(xs []float64, p float64) int {
	q := percentile(xs, p)
	n := 0
	for _, x := range xs {
		if x > q {
			n++
		}
	}
	return n
}
