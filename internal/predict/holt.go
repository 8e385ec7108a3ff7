package predict

import "fmt"

// Holt implements Holt's linear (double exponential) smoothing over the
// available history window: a smoothed level and trend are built from the
// snapshots oldest-to-newest and extrapolated forward. Compared with the
// raw two-point Linear predictor it filters noise in the per-iteration
// differences, at the cost of lag on genuine trend changes — the
// accuracy/complexity trade-off §3.2 discusses for larger backward windows.
type Holt struct {
	// Alpha is the level smoothing factor in (0, 1].
	Alpha float64
	// Beta is the trend smoothing factor in (0, 1].
	Beta float64
	// BW is the maximum history depth consulted (≥ 2).
	BW int
}

// PredictInto implements Predictor. Each variable's level and trend are
// independent of every other's, so they are carried per variable in
// registers and only the extrapolation is stored.
func (h Holt) PredictInto(dst []float64, hist [][]float64, steps int) []float64 {
	if len(hist) == 0 {
		return nil
	}
	depth := h.BW
	if depth < 2 {
		depth = 2
	}
	if depth > len(hist) {
		depth = len(hist)
	}
	if depth < 2 {
		return ZeroOrder{}.PredictInto(dst, hist, steps)
	}
	// Oldest-to-newest pass. hist is newest first: index depth-1 is oldest.
	for i := range dst {
		level := hist[depth-1][i]
		trend := hist[depth-2][i] - hist[depth-1][i]
		for s := depth - 2; s >= 0; s-- {
			prevLevel := level
			level = h.Alpha*hist[s][i] + (1-h.Alpha)*(level+trend)
			trend = h.Beta*(level-prevLevel) + (1-h.Beta)*trend
		}
		dst[i] = level + float64(steps)*trend
	}
	return dst
}

// Window implements Predictor.
func (h Holt) Window() int {
	if h.BW < 2 {
		return 2
	}
	return h.BW
}

// Name implements Predictor.
func (h Holt) Name() string {
	return fmt.Sprintf("holt(a=%.2f,b=%.2f,bw=%d)", h.Alpha, h.Beta, h.Window())
}

// Ops implements Predictor.
func (h Holt) Ops() float64 { return float64(6 * h.Window()) }
