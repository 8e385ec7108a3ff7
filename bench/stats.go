package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values for an
// even count), 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, 0 for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// tailLadder is the set of tail percentiles the harness is willing to report.
var tailLadder = []float64{75, 90, 95, 99, 99.9}

// tailPercentile picks the highest percentile of the ladder that still has at
// least ten samples beyond it among n samples; ok is false when even the
// lowest rung does not (n < 40), in which case only the median is reported.
func tailPercentile(n int) (p float64, ok bool) {
	for _, cand := range tailLadder {
		if float64(n)*(100-cand)/100 >= 10-1e-9 { // the slack absorbs 100-99.9 not being exact
			p, ok = cand, true
		}
	}
	return p, ok
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

// ratio returns a/b, or 0 when b is 0 (a metric that does not apply).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
