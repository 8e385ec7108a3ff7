package experiments

import "testing"

func TestExtForwardWindowsSaturates(t *testing.T) {
	cfg := QuickNBody()
	rep, err := ExtForwardWindows(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := rep.SeriesByName("measured")
	model := rep.SeriesByName("model")
	if m == nil || model == nil || len(m.Y) != 5 {
		t.Fatalf("bad series: %+v", rep.Series)
	}
	// FW=0 is the unit baseline; FW>=1 should beat it.
	if m.Y[0] != 1 {
		t.Errorf("baseline speedup = %v", m.Y[0])
	}
	if m.Y[1] <= 1.05 {
		t.Errorf("FW=1 measured speedup %v, want > 1.05", m.Y[1])
	}
	// The model is monotone non-decreasing in FW.
	for i := 2; i < len(model.Y); i++ {
		if model.Y[i] < model.Y[i-1]-1e-9 {
			t.Errorf("model not monotone at FW=%d: %v", i, model.Y)
		}
	}
}

func TestExtPredictorsRanksVelocityMethodsAhead(t *testing.T) {
	cfg := QuickNBody()
	rep, err := ExtPredictors(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bad := rep.SeriesByName("bad-frac")
	if bad == nil || len(bad.Y) < 6 {
		t.Fatalf("missing bad-frac series")
	}
	zero, linear := bad.Y[0], bad.Y[1]
	// Zero-order (ignore motion) must fail checks at least as often as
	// linear extrapolation on a particle workload.
	if linear > zero+1e-9 {
		t.Errorf("linear bad-frac %v above zero-order %v", linear, zero)
	}
	times := rep.SeriesByName("total-simsec")
	for i, v := range times.Y {
		if v <= 0 {
			t.Errorf("predictor %d: non-positive time", i)
		}
	}
}
