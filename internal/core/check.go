package core

import "math"

// RelErrCheck builds a CheckResult by comparing predicted and actual values
// element-wise: element i is "bad" unless |pred−act| ≤ threshold·(1+|act|),
// so a NaN on either side (or in the bound: 0·∞) is bad; the bound is
// clamped finite, so an infinite error is bad too.
// opsPerElem is the check's operation cost per element (the paper's
// f_check). It is a convenience for apps without a domain-specific error
// metric (the N-body app uses eq. 11 instead).
func RelErrCheck(threshold, opsPerElem float64, predicted, actual []float64) CheckResult {
	n := len(actual)
	bad := 0
	for i := 0; i < n && i < len(predicted); i++ {
		if !(math.Abs(predicted[i]-actual[i]) <= min(threshold*(1+math.Abs(actual[i])), math.MaxFloat64)) {
			bad++
		}
	}
	if len(predicted) != n {
		// A malformed prediction invalidates everything.
		bad = n
	}
	return CheckResult{Bad: bad, Total: n, Ops: opsPerElem * float64(n)}
}

// MaxAbsErr returns the maximum absolute element-wise difference, a common
// diagnostic for comparing speculative and blocking runs; +Inf if any
// difference is NaN.
func MaxAbsErr(a, b []float64) float64 {
	worst := 0.0
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		worst = max(worst, math.Abs(a[i]-b[i])) // max keeps a NaN
	}
	if math.IsNaN(worst) {
		return math.Inf(1)
	}
	return worst
}
