package predict

import (
	"math"
	"math/rand"
	"testing"
)

func TestHoltExactOnAffineWithFullSmoothing(t *testing.T) {
	// Alpha = Beta = 1 tracks the last level and difference exactly, so an
	// affine series is extrapolated exactly.
	h := Holt{Alpha: 1, Beta: 1, BW: 4}
	// x(t) = 3t + 1 at t = 1..4, newest first.
	hist := [][]float64{{13}, {10}, {7}, {4}}
	for steps := 1; steps <= 3; steps++ {
		got := predictFresh(h, hist, steps)
		want := 13 + 3*float64(steps)
		if math.Abs(got[0]-want) > 1e-9 {
			t.Errorf("steps=%d: got %g, want %g", steps, got[0], want)
		}
	}
}

func TestHoltConstantSeries(t *testing.T) {
	h := Holt{Alpha: 0.5, Beta: 0.3, BW: 5}
	hist := [][]float64{{7, 7}, {7, 7}, {7, 7}}
	got := predictFresh(h, hist, 2)
	if math.Abs(got[0]-7) > 1e-9 || math.Abs(got[1]-7) > 1e-9 {
		t.Errorf("constant series predicted %v", got)
	}
}

func TestHoltShortHistoryDegrades(t *testing.T) {
	h := Holt{Alpha: 0.5, Beta: 0.5, BW: 5}
	got := predictFresh(h, [][]float64{{4}}, 3)
	if math.Abs(got[0]-4) > 1e-9 {
		t.Errorf("single snapshot predicted %v, want 4", got[0])
	}
	if predictFresh(h, nil, 1) != nil {
		t.Error("empty history should return nil")
	}
}

func TestHoltSmoothsNoiseBetterThanLinear(t *testing.T) {
	// Underlying trend x(t) = t with additive noise; the two-point Linear
	// predictor doubles the noise in its slope, Holt averages it out.
	rng := rand.New(rand.NewSource(6))
	h := Holt{Alpha: 0.4, Beta: 0.2, BW: 8}
	l := Linear{}
	var holtErr, linErr float64
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		hist := make([][]float64, 8) // newest first: t = 10, 9, ..., 3
		for i := range hist {
			tt := float64(10 - i)
			hist[i] = []float64{tt + 0.3*(2*rng.Float64()-1)}
		}
		truth := 11.0
		holtErr += math.Abs(predictFresh(h, hist, 1)[0] - truth)
		linErr += math.Abs(predictFresh(l, hist, 1)[0] - truth)
	}
	if holtErr >= linErr {
		t.Errorf("Holt error %g not below Linear error %g on noisy trend", holtErr/trials, linErr/trials)
	}
}

func TestHoltWindowAndName(t *testing.T) {
	h := Holt{Alpha: 0.5, Beta: 0.5, BW: 6}
	if h.Window() != 6 {
		t.Errorf("Window = %d", h.Window())
	}
	if (Holt{}).Window() != 2 {
		t.Errorf("default Window = %d", (Holt{}).Window())
	}
	if h.Name() == "" || h.Ops() <= 0 {
		t.Error("bad Name/Ops")
	}
}

// holtReference is Holt's arithmetic as it stood before PredictInto: level
// and trend vectors swept oldest to newest, then extrapolated into a fresh
// slice. PredictInto must match it to the bit.
func holtReference(h Holt, hist [][]float64, steps int) []float64 {
	depth := min(max(h.BW, 2), len(hist))
	if depth < 2 {
		return append([]float64(nil), hist[0]...)
	}
	n := len(hist[0])
	level := make([]float64, n)
	trend := make([]float64, n)
	copy(level, hist[depth-1])
	for i := range trend {
		trend[i] = hist[depth-2][i] - hist[depth-1][i]
	}
	for s := depth - 2; s >= 0; s-- {
		x := hist[s]
		for i := 0; i < n; i++ {
			prevLevel := level[i]
			level[i] = h.Alpha*x[i] + (1-h.Alpha)*(level[i]+trend[i])
			trend[i] = h.Beta*(level[i]-prevLevel) + (1-h.Beta)*trend[i]
		}
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = level[i] + float64(steps)*trend[i]
	}
	return out
}

// TestHoltPredictIntoMatchesReference records histories of a noisy trend and
// of a logistic map, and checks PredictInto against holtReference bit for bit
// over every depth, window, step count and smoothing pair — writing into dst,
// every element, whatever dst held before.
func TestHoltPredictIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	const n, depth = 7, 9
	record := func(next func(prev []float64, i int) float64) [][]float64 {
		hist := make([][]float64, depth) // newest first
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()
		}
		for s := depth - 1; s >= 0; s-- {
			y := make([]float64, n)
			for i := range y {
				y[i] = next(x, i)
			}
			hist[s], x = y, y
		}
		return hist
	}
	histories := [][][]float64{
		record(func(prev []float64, i int) float64 { return prev[i] + 0.5 + 0.1*(2*rng.Float64()-1) }),
		record(func(prev []float64, i int) float64 { return 3.7 * prev[i] * (1 - prev[i]) }),
	}
	smoothing := [][2]float64{{1, 1}, {0.6, 0.4}, {0.4, 0.2}, {0.13, 0.91}}
	for _, hist := range histories {
		for d := 1; d <= depth; d++ {
			for bw := 0; bw <= depth+1; bw++ {
				for _, ab := range smoothing {
					h := Holt{Alpha: ab[0], Beta: ab[1], BW: bw}
					for steps := 1; steps <= 4; steps++ {
						want := holtReference(h, hist[:d], steps)
						dst := make([]float64, n)
						for i := range dst {
							dst[i] = math.NaN()
						}
						got := h.PredictInto(dst, hist[:d], steps)
						if &got[0] != &dst[0] {
							t.Fatalf("depth %d %s: result not written into dst", d, h.Name())
						}
						for i := range want {
							if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
								t.Fatalf("depth %d %s steps %d [%d]: %v, reference %v", d, h.Name(), steps, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}
