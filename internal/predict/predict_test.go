package predict

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// predictFresh runs p into a freshly allocated buffer (nil for an empty
// history, which every predictor answers with nil).
func predictFresh(p Predictor, hist [][]float64, steps int) []float64 {
	var dst []float64
	if len(hist) > 0 {
		dst = make([]float64, len(hist[0]))
	}
	return p.PredictInto(dst, hist, steps)
}

func TestZeroOrder(t *testing.T) {
	p := ZeroOrder{}
	hist := [][]float64{{3, 4}, {1, 2}}
	got := predictFresh(p, hist, 1)
	if !almost(got[0], 3) || !almost(got[1], 4) {
		t.Errorf("Predict = %v, want [3 4]", got)
	}
	if got2 := predictFresh(p, hist, 5); !almost(got2[0], 3) {
		t.Errorf("multi-step zero order should still hold last value, got %v", got2)
	}
	if predictFresh(p, nil, 1) != nil {
		t.Error("empty history should return nil")
	}
}

func TestZeroOrderDoesNotAliasHistory(t *testing.T) {
	hist := [][]float64{{1}}
	got := predictFresh(ZeroOrder{}, hist, 1)
	got[0] = 99
	if hist[0][0] != 1 {
		t.Error("prediction aliases history storage")
	}
}

func TestLinearExactOnLinearSeries(t *testing.T) {
	p := Linear{}
	// x(t) = 5t: hist[0] = x(4) = 20, hist[1] = x(3) = 15.
	hist := [][]float64{{20}, {15}}
	for steps := 1; steps <= 4; steps++ {
		got := predictFresh(p, hist, steps)
		want := 20 + 5*float64(steps)
		if !almost(got[0], want) {
			t.Errorf("steps=%d: got %g, want %g", steps, got[0], want)
		}
	}
}

func TestLinearDegradesToZeroOrder(t *testing.T) {
	got := predictFresh(Linear{}, [][]float64{{7}}, 3)
	if !almost(got[0], 7) {
		t.Errorf("one-snapshot linear = %g, want 7", got[0])
	}
}

func TestDampedBetweenZeroAndLinear(t *testing.T) {
	hist := [][]float64{{10}, {6}} // slope 4
	z := predictFresh(ZeroOrder{}, hist, 1)[0]
	l := predictFresh(Linear{}, hist, 1)[0]
	d := predictFresh(Damped{Alpha: 0.5}, hist, 1)[0]
	if !(z < d && d < l) {
		t.Errorf("damped %g not between zero-order %g and linear %g", d, z, l)
	}
	if full := predictFresh(Damped{Alpha: 1}, hist, 1)[0]; !almost(full, l) {
		t.Errorf("alpha=1 damped = %g, want linear %g", full, l)
	}
}

func TestWeightedSumSingleWeightIsZeroOrder(t *testing.T) {
	w := WeightedSum{Weights: []float64{1}}
	hist := [][]float64{{2, 3}, {0, 0}}
	got := predictFresh(w, hist, 1)
	if !almost(got[0], 2) || !almost(got[1], 3) {
		t.Errorf("Predict = %v, want [2 3]", got)
	}
}

func TestWeightedSumTwoPointExtrapolation(t *testing.T) {
	// Weights {2, −1} reproduce linear extrapolation: 2x(t−1) − x(t−2).
	w := WeightedSum{Weights: []float64{2, -1}}
	hist := [][]float64{{20}, {15}}
	got := predictFresh(w, hist, 1)
	if !almost(got[0], 25) {
		t.Errorf("Predict = %g, want 25", got[0])
	}
	// Two steps: rolled forward, still exact for a linear series.
	got2 := predictFresh(w, hist, 2)
	if !almost(got2[0], 30) {
		t.Errorf("2-step Predict = %g, want 30", got2[0])
	}
}

func TestWeightedSumShortHistoryRenormalizes(t *testing.T) {
	// BW=3 weights but only one snapshot available: falls back to using it
	// with weight renormalized to 1.
	w := WeightedSum{Weights: []float64{0.5, 0.3, 0.2}}
	got := predictFresh(w, [][]float64{{8}}, 1)
	if !almost(got[0], 8) {
		t.Errorf("Predict = %g, want 8", got[0])
	}
}

func TestWeightedSumZeroStepsReturnsLast(t *testing.T) {
	w := WeightedSum{Weights: []float64{0.5, 0.5}}
	got := predictFresh(w, [][]float64{{4}, {2}}, 0)
	if !almost(got[0], 4) {
		t.Errorf("steps=0 Predict = %g, want 4", got[0])
	}
}

func TestPolynomialExactOnQuadratic(t *testing.T) {
	// x(t) = t²: snapshots at t=2,3,4 are 4,9,16 (hist newest first).
	hist := [][]float64{{16}, {9}, {4}}
	p := Polynomial{Order: 2}
	for steps := 1; steps <= 3; steps++ {
		tt := 4 + steps
		want := float64(tt * tt)
		got := predictFresh(p, hist, steps)
		if !almost(got[0], want) {
			t.Errorf("steps=%d: got %g, want %g", steps, got[0], want)
		}
	}
}

func TestPolynomialOrder1MatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		hist := [][]float64{{rng.Float64() * 10}, {rng.Float64() * 10}}
		a := predictFresh(Polynomial{Order: 1}, hist, 2)
		b := predictFresh(Linear{}, hist, 2)
		if !almost(a[0], b[0]) {
			t.Fatalf("poly(1)=%g linear=%g for hist %v", a[0], b[0], hist)
		}
	}
}

func TestPolynomialDegradesWithShortHistory(t *testing.T) {
	p := Polynomial{Order: 3}
	// Two snapshots: should behave like linear.
	hist := [][]float64{{10}, {8}}
	got := predictFresh(p, hist, 1)
	if !almost(got[0], 12) {
		t.Errorf("degraded poly = %g, want 12", got[0])
	}
	// One snapshot: zero order.
	got1 := predictFresh(p, [][]float64{{5}}, 2)
	if !almost(got1[0], 5) {
		t.Errorf("single-snapshot poly = %g, want 5", got1[0])
	}
}

func TestWindowsAndNames(t *testing.T) {
	cases := []struct {
		p      Predictor
		window int
	}{
		{ZeroOrder{}, 1},
		{Linear{}, 2},
		{Damped{Alpha: 0.5}, 2},
		{WeightedSum{Weights: []float64{1, 2, 3}}, 3},
		{Polynomial{Order: 2}, 3},
	}
	for _, c := range cases {
		if c.p.Window() != c.window {
			t.Errorf("%s: Window = %d, want %d", c.p.Name(), c.p.Window(), c.window)
		}
		if c.p.Name() == "" {
			t.Errorf("predictor has empty name")
		}
		if c.p.Ops() <= 0 {
			t.Errorf("%s: non-positive Ops", c.p.Name())
		}
	}
}

// Property: every predictor is exact on constant series, for any history
// depth and step count.
func TestConstantSeriesFixedPointProperty(t *testing.T) {
	preds := []Predictor{
		ZeroOrder{}, Linear{}, Damped{Alpha: 0.7},
		WeightedSum{Weights: []float64{0.6, 0.3, 0.1}},
		Polynomial{Order: 2},
	}
	f := func(val float64, depth8, steps8 uint8) bool {
		if math.IsNaN(val) || math.IsInf(val, 0) || math.Abs(val) > 1e100 {
			return true
		}
		depth := int(depth8%5) + 1
		steps := int(steps8%4) + 1
		hist := make([][]float64, depth)
		for i := range hist {
			hist[i] = []float64{val, val * 2}
		}
		for _, p := range preds {
			got := predictFresh(p, hist, steps)
			if len(got) != 2 {
				return false
			}
			if math.Abs(got[0]-val) > 1e-6*(1+math.Abs(val)) {
				return false
			}
			if math.Abs(got[1]-2*val) > 1e-6*(1+math.Abs(val)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Linear is exact on any affine series regardless of slope,
// intercept and step count.
func TestLinearAffineExactnessProperty(t *testing.T) {
	f := func(a16, b16 int16, steps8 uint8) bool {
		a := float64(a16) / 7
		b := float64(b16) / 3
		steps := int(steps8%5) + 1
		// hist[0] = a·t+b at t=10, hist[1] at t=9.
		hist := [][]float64{{a*10 + b}, {a*9 + b}}
		got := predictFresh(Linear{}, hist, steps)
		want := a*float64(10+steps) + b
		return math.Abs(got[0]-want) < 1e-6*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
