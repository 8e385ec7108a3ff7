// Package predict implements speculation functions: given the most recent
// snapshots of a remote partition's variables, extrapolate their values one
// or more iterations into the future.
//
// This is §3.1's "speculation function for X_k(t) might be a weighted sum of
// its past values, x*(t) = w1·x(t−1) + w2·x(t−2) + …". The backward window
// (BW) is how many past snapshots a predictor consults; the forward distance
// is how many iterations ahead it extrapolates (used by forward windows > 1).
//
// Snapshot convention: hist[0] is the most recent value x(t−1), hist[1] is
// x(t−2), and so on. PredictInto(dst, hist, s) estimates x(t−1+s), so
// steps = 1 means "the value in the not-yet-received message".
package predict

import "fmt"

// Predictor extrapolates variable vectors from their history.
type Predictor interface {
	// PredictInto writes the estimated snapshot `steps` iterations after
	// hist[0] into dst, which has len(hist[0]) elements (all snapshots in
	// hist have that length), so a hot loop speculates without allocating.
	// It returns the slice holding the result — dst, except where an
	// algorithm is inherently out of place (WeightedSum's multi-step
	// rolling), which returns a fresh slice; callers use the return value.
	// Predictors degrade gracefully when hist is shorter than their window
	// (falling back to lower-order extrapolation), and return nil only when
	// hist is empty.
	PredictInto(dst []float64, hist [][]float64, steps int) []float64
	// Window returns the backward window: the maximum number of past
	// snapshots the predictor consults.
	Window() int
	// Name identifies the predictor in reports and benchmarks.
	Name() string
	// Ops returns the approximate operation count to speculate ONE variable
	// one step ahead (the paper's f_spec), used for simulated-time charging.
	Ops() float64
}

// ZeroOrder predicts that values do not change: x*(t) = x(t−1). This is the
// cheapest possible speculation function (BW = 1).
type ZeroOrder struct{}

// PredictInto implements Predictor.
func (ZeroOrder) PredictInto(dst []float64, hist [][]float64, steps int) []float64 {
	if len(hist) == 0 {
		return nil
	}
	copy(dst, hist[0])
	return dst
}

// Window implements Predictor.
func (ZeroOrder) Window() int { return 1 }

// Name implements Predictor.
func (ZeroOrder) Name() string { return "zero-order" }

// Ops implements Predictor.
func (ZeroOrder) Ops() float64 { return 1 }

// Linear extrapolates along the line through the last two snapshots:
// x*(t−1+s) = x(t−1) + s·(x(t−1) − x(t−2)). With one snapshot it degrades to
// zero-order. This is the generic analogue of the paper's velocity-based
// N-body speculation (eq. 10), with BW = 2.
type Linear struct{}

// PredictInto implements Predictor.
func (Linear) PredictInto(dst []float64, hist [][]float64, steps int) []float64 {
	if len(hist) == 0 {
		return nil
	}
	copy(dst, hist[0])
	if len(hist) == 1 {
		return dst
	}
	s := float64(steps)
	for i := range dst {
		dst[i] += s * (hist[0][i] - hist[1][i])
	}
	return dst
}

// Window implements Predictor.
func (Linear) Window() int { return 2 }

// Name implements Predictor.
func (Linear) Name() string { return "linear" }

// Ops implements Predictor.
func (Linear) Ops() float64 { return 3 }

// Damped is Linear with the slope scaled by Alpha in (0, 1]; values whose
// trend overshoots (e.g. oscillating iterations) speculate better with a
// damped slope.
type Damped struct {
	Alpha float64
}

// PredictInto implements Predictor.
func (d Damped) PredictInto(dst []float64, hist [][]float64, steps int) []float64 {
	if len(hist) == 0 {
		return nil
	}
	copy(dst, hist[0])
	if len(hist) == 1 {
		return dst
	}
	s := float64(steps) * d.Alpha
	for i := range dst {
		dst[i] += s * (hist[0][i] - hist[1][i])
	}
	return dst
}

// Window implements Predictor.
func (Damped) Window() int { return 2 }

// Name implements Predictor.
func (d Damped) Name() string { return fmt.Sprintf("damped(%.2f)", d.Alpha) }

// Ops implements Predictor.
func (Damped) Ops() float64 { return 4 }

// WeightedSum is the paper's literal speculation function: a fixed weighted
// sum of past snapshots, x*(t) = Σ_i Weights[i]·x(t−1−i). Multi-step
// prediction rolls the one-step predictor forward. BW = len(Weights).
type WeightedSum struct {
	Weights []float64
}

// PredictInto implements Predictor. Only the single-step case is computed in
// place; multi-step prediction rolls the window forward through intermediate
// snapshots and returns a freshly allocated result.
func (w WeightedSum) PredictInto(dst []float64, hist [][]float64, steps int) []float64 {
	if len(hist) == 0 {
		return nil
	}
	if len(w.Weights) == 0 {
		return ZeroOrder{}.PredictInto(dst, hist, steps)
	}
	n := len(hist[0])
	if steps <= 0 {
		copy(dst, hist[0])
		return dst
	}
	// window holds newest-first snapshots, rolled forward each step.
	depth := len(w.Weights)
	if depth > len(hist) {
		depth = len(hist)
	}
	// Renormalize the usable prefix of weights so a short history still
	// produces an unbiased estimate.
	var wsum float64
	for i := 0; i < depth; i++ {
		wsum += w.Weights[i]
	}
	if steps == 1 {
		for j := 0; j < n; j++ {
			dst[j] = 0
		}
		for i := 0; i < depth; i++ {
			wi := w.Weights[i]
			if wsum != 0 {
				wi /= wsum
			}
			for j := 0; j < n; j++ {
				dst[j] += wi * hist[i][j]
			}
		}
		return dst
	}
	window := make([][]float64, depth)
	for i := range window {
		window[i] = hist[i]
	}
	var out []float64
	for s := 0; s < steps; s++ {
		out = make([]float64, n)
		for i := 0; i < depth; i++ {
			wi := w.Weights[i]
			if wsum != 0 {
				wi /= wsum
			}
			for j := 0; j < n; j++ {
				out[j] += wi * window[i][j]
			}
		}
		// Shift: the prediction becomes the newest snapshot.
		copy(window[1:], window[:len(window)-1])
		window[0] = out
	}
	return out
}

// Window implements Predictor.
func (w WeightedSum) Window() int { return len(w.Weights) }

// Name implements Predictor.
func (w WeightedSum) Name() string { return fmt.Sprintf("weighted(bw=%d)", len(w.Weights)) }

// Ops implements Predictor.
func (w WeightedSum) Ops() float64 { return float64(2 * len(w.Weights)) }

// Polynomial extrapolates with the degree-(Order) polynomial through the
// last Order+1 snapshots (Lagrange form on equally spaced iterations). The
// paper's future-work section suggests higher-order derivatives; this is
// that extension. It degrades to the highest order the history supports.
type Polynomial struct {
	Order int // >= 1; Order 1 equals Linear
}

// PredictInto implements Predictor. The Lagrange basis weights (at most
// Order+1 of them) still allocate a small scratch slice; the per-variable
// accumulation is in place.
func (pl Polynomial) PredictInto(dst []float64, hist [][]float64, steps int) []float64 {
	if len(hist) == 0 {
		return nil
	}
	pts := pl.Order + 1
	if pts > len(hist) {
		pts = len(hist)
	}
	if pts < 2 {
		return ZeroOrder{}.PredictInto(dst, hist, steps)
	}
	n := len(hist[0])
	for j := 0; j < n; j++ {
		dst[j] = 0
	}
	// Nodes at x = 0 (oldest used) … pts−1 (newest); evaluate at
	// x = pts−1+steps. Lagrange basis weights are value-independent, so
	// compute them once.
	x := float64(pts-1) + float64(steps)
	l := make([]float64, pts)
	for i := 0; i < pts; i++ {
		li := 1.0
		for j := 0; j < pts; j++ {
			if j == i {
				continue
			}
			li *= (x - float64(j)) / (float64(i) - float64(j))
		}
		l[i] = li
	}
	for i := 0; i < pts; i++ {
		// hist index: node i corresponds to snapshot age (pts−1−i).
		h := hist[pts-1-i]
		for j := 0; j < n; j++ {
			dst[j] += l[i] * h[j]
		}
	}
	return dst
}

// Window implements Predictor.
func (pl Polynomial) Window() int { return pl.Order + 1 }

// Name implements Predictor.
func (pl Polynomial) Name() string { return fmt.Sprintf("poly(%d)", pl.Order) }

// Ops implements Predictor.
func (pl Polynomial) Ops() float64 { return float64(3 * (pl.Order + 1)) }
