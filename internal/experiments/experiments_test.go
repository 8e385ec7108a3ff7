package experiments

import (
	"strings"
	"testing"
)

func TestFigure2Ordering(t *testing.T) {
	rep, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	tot := rep.SeriesByName("totals")
	if tot == nil || len(tot.Y) != 3 {
		t.Fatalf("missing totals series: %+v", rep.Series)
	}
	tA, tB, tC := tot.Y[0], tot.Y[1], tot.Y[2]
	if !(tB < tA) {
		t.Errorf("T_spec_good (%.2f) should beat T_no_spec (%.2f)", tB, tA)
	}
	if !(tC > tA) {
		t.Errorf("T_spec_nogood (%.2f) should exceed T_no_spec (%.2f)", tC, tA)
	}
	out := rep.String()
	for _, want := range []string{"(a) no speculation", "(b) speculation", "(c) speculation", "legend"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestFigure4LargerWindowsHelp(t *testing.T) {
	rep, err := Figure4()
	if err != nil {
		t.Fatal(err)
	}
	tot := rep.SeriesByName("total-time")
	if tot == nil || len(tot.Y) != 3 {
		t.Fatalf("missing totals: %+v", rep.Series)
	}
	if !(tot.Y[2] <= tot.Y[1] && tot.Y[1] <= tot.Y[0]) {
		t.Errorf("want T(FW2) <= T(FW1) <= T(FW0), got %v", tot.Y)
	}
	if tot.Y[2] >= tot.Y[0] {
		t.Errorf("FW=2 (%v) no better than FW=0 (%v)", tot.Y[2], tot.Y[0])
	}
}

func TestFigure5Shapes(t *testing.T) {
	rep := Figure5()
	spec := rep.SeriesByName("spec")
	noSpec := rep.SeriesByName("no-spec")
	maxS := rep.SeriesByName("max")
	if spec == nil || noSpec == nil || maxS == nil {
		t.Fatal("missing series")
	}
	last := len(spec.Y) - 1
	if spec.Y[last] <= noSpec.Y[last]*1.2 {
		t.Errorf("spec (%.2f) should clearly beat no-spec (%.2f) at p=16", spec.Y[last], noSpec.Y[last])
	}
	if spec.Y[last] > maxS.Y[last] {
		t.Errorf("spec exceeds max attainable speedup")
	}
	// No-spec must peak strictly before p=16.
	peakAt := 0
	peak := 0.0
	for i, y := range noSpec.Y {
		if y > peak {
			peak, peakAt = y, i+1
		}
	}
	if peakAt >= 16 {
		t.Errorf("no-spec speedup never declines (peak at %d)", peakAt)
	}
}

func TestFigure6Crossover(t *testing.T) {
	rep := Figure6()
	spec := rep.SeriesByName("spec")
	noSpec := rep.SeriesByName("no-spec")
	if spec == nil || noSpec == nil {
		t.Fatal("missing series")
	}
	if spec.Y[0] <= noSpec.Y[0] {
		t.Errorf("spec at k=0 (%.3f) should beat no-spec (%.3f)", spec.Y[0], noSpec.Y[0])
	}
	lastIdx := len(spec.Y) - 1
	if spec.Y[lastIdx] >= noSpec.Y[lastIdx] {
		t.Errorf("spec at k=20%% should lose to no-spec")
	}
}

func TestFigure8QuickShapes(t *testing.T) {
	cfg := QuickNBody()
	rep, err := Figure8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fw0 := rep.SeriesByName("FW=0")
	fw1 := rep.SeriesByName("FW=1")
	fw2 := rep.SeriesByName("FW=2")
	maxS := rep.SeriesByName("max")
	if fw0 == nil || fw1 == nil || fw2 == nil || maxS == nil {
		t.Fatal("missing series")
	}
	last := len(fw0.Y) - 1
	// Speculation wins at the largest processor count.
	if fw1.Y[last] <= fw0.Y[last] {
		t.Errorf("FW=1 (%.2f) does not beat FW=0 (%.2f) at p=%d", fw1.Y[last], fw0.Y[last], cfg.MaxProcs)
	}
	// The paper's ordering: a deeper window is never worse once there is
	// anyone to speculate on (a wrong guess costs one recompute, not FW).
	for i := 1; i < len(fw2.Y); i++ {
		if fw2.Y[i] < fw1.Y[i] {
			t.Errorf("p=%d: FW=2 (%.3f) below FW=1 (%.3f)", i+1, fw2.Y[i], fw1.Y[i])
		}
	}
	// Nothing beats the capacity bound.
	for i := range fw2.Y {
		if fw2.Y[i] > maxS.Y[i]*1.001 {
			t.Errorf("p=%d: speedup %.2f exceeds capacity bound %.2f", i+1, fw2.Y[i], maxS.Y[i])
		}
	}
	// At p=1 all speedups are 1.
	if fw0.Y[0] != 1 || fw1.Y[0] < 0.99 || fw1.Y[0] > 1.01 {
		t.Errorf("p=1 speedups: %v %v", fw0.Y[0], fw1.Y[0])
	}
}

func TestTable2QuickShapes(t *testing.T) {
	cfg := QuickNBody()
	_, rows, err := Table2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// FW=0 has no speculation or checking.
	if rows[0].Speculation != 0 || rows[0].Check != 0 {
		t.Errorf("FW=0 row has spec/check time: %+v", rows[0])
	}
	// Speculation slashes blocked communication time.
	if rows[1].Comm >= rows[0].Comm*0.8 {
		t.Errorf("FW=1 comm %.3f not much below FW=0 comm %.3f", rows[1].Comm, rows[0].Comm)
	}
	// Total improves with FW, and FW=1/2 carry spec+check overhead.
	if rows[1].Total >= rows[0].Total {
		t.Errorf("FW=1 total %.3f not below FW=0 total %.3f", rows[1].Total, rows[0].Total)
	}
	if rows[2].Total >= rows[1].Total {
		t.Errorf("FW=2 total %.3f not below FW=1 total %.3f", rows[2].Total, rows[1].Total)
	}
	if rows[1].Speculation <= 0 || rows[1].Check <= 0 {
		t.Errorf("FW=1 missing overhead phases: %+v", rows[1])
	}
	// Compute time is roughly FW-independent.
	if rows[1].Computation < rows[0].Computation*0.9 || rows[1].Computation > rows[0].Computation*1.1 {
		t.Errorf("compute time changed too much: %.3f vs %.3f", rows[1].Computation, rows[0].Computation)
	}
}

func TestTable3QuickShapes(t *testing.T) {
	cfg := QuickNBody()
	_, rows, err := Table3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Tighter θ ⇒ more incorrect speculations.
	for i := 1; i < len(rows); i++ {
		if rows[i].IncorrectPct < rows[i-1].IncorrectPct-1e-9 {
			t.Errorf("incorrect%% not monotone: %+v", rows)
			break
		}
	}
	// Accepted force error shrinks as θ tightens (allowing zero rows).
	first, last := rows[0].MaxForceErr, rows[len(rows)-1].MaxForceErr
	if last > first+1e-9 {
		t.Errorf("max force error grew as θ tightened: %.4f -> %.4f", first, last)
	}
}

func TestFigure9ModelTracksMeasured(t *testing.T) {
	cfg := QuickNBody()
	rep, err := Figure9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mNo := rep.SeriesByName("measured FW=0")
	pNo := rep.SeriesByName("model no-spec")
	mSp := rep.SeriesByName("measured FW=1")
	pSp := rep.SeriesByName("model spec")
	if mNo == nil || pNo == nil || mSp == nil || pSp == nil {
		t.Fatal("missing series")
	}
	for i := range mNo.Y {
		relNo := absf(pNo.Y[i]-mNo.Y[i]) / mNo.Y[i]
		relSp := absf(pSp.Y[i]-mSp.Y[i]) / mSp.Y[i]
		// The paper reports ≤10% (small p) and ~25% (large p); allow a
		// loose 50% guard to catch gross model/measurement divergence.
		if relNo > 0.5 || relSp > 0.5 {
			t.Errorf("p=%d: model error no-spec %.0f%%, spec %.0f%%", i+1, relNo*100, relSp*100)
		}
	}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestReportString(t *testing.T) {
	r := Report{ID: "x", Title: "t", Lines: []string{"a"}, Series: []Series{{Name: "s", X: []float64{1}, Y: []float64{2}}}}
	out := r.String()
	for _, want := range []string{"== x: t ==", "a", "series s"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in %q", want, out)
		}
	}
	if r.SeriesByName("nope") != nil {
		t.Error("found nonexistent series")
	}
}
