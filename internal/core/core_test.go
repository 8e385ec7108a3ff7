package core

import (
	"math"
	"testing"

	"specomp/internal/cluster"
	"specomp/internal/netmodel"
	"specomp/internal/predict"
)

// coupledMap is a toy synchronous iterative application: each processor owns
// one variable of a globally coupled logistic map,
//
//	x_j(t+1) = (1−eps)·f(x_j(t)) + eps·mean_k f(x_k(t)),  f(x) = r·x·(1−x)
//
// It is nonlinear (so generic predictors are imperfect) yet smooth (so
// speculation is usually within tolerance) — a miniature of the paper's
// N-body behaviour.
type coupledMap struct {
	p         *cluster.Proc
	r, eps    float64
	threshold float64
	computeOp float64
	repairOp  float64
}

func (a *coupledMap) f(x float64) float64 { return a.r * x * (1 - x) }

func (a *coupledMap) InitLocal() []float64 {
	return []float64{0.25 + 0.5*float64(a.p.ID())/float64(a.p.P())}
}

func (a *coupledMap) Compute(view [][]float64, t int) []float64 {
	sum := 0.0
	for _, part := range view {
		sum += a.f(part[0])
	}
	mean := sum / float64(len(view))
	x := view[a.p.ID()][0]
	return []float64{(1-a.eps)*a.f(x) + a.eps*mean}
}

func (a *coupledMap) ComputeOps() float64 { return a.computeOp }

func (a *coupledMap) Check(peer int, pred, act, local []float64, t int) CheckResult {
	return RelErrCheck(a.threshold, 1, pred, act)
}

func (a *coupledMap) RepairOps(r CheckResult) float64 { return a.repairOp }

// driftApp evolves affinely: x_j(t+1) = x_j(t) + c_j. The Linear predictor
// is exact on it, so every speculation must pass the check.
type driftApp struct {
	p         *cluster.Proc
	threshold float64
}

func (a *driftApp) InitLocal() []float64 { return []float64{float64(a.p.ID())} }

func (a *driftApp) Compute(view [][]float64, t int) []float64 {
	return []float64{view[a.p.ID()][0] + 0.5 + float64(a.p.ID())}
}

func (a *driftApp) ComputeOps() float64 { return 100 }

func (a *driftApp) Check(peer int, pred, act, local []float64, t int) CheckResult {
	return RelErrCheck(a.threshold, 1, pred, act)
}

func (a *driftApp) RepairOps(r CheckResult) float64 { return 100 }

func uniformCluster(p int, delay float64) cluster.Config {
	return cluster.Config{
		Machines: cluster.UniformMachines(p, 1000),
		Net:      netmodel.Fixed{D: delay},
	}
}

func runCoupled(t *testing.T, cc cluster.Config, cfg Config, threshold float64) []Result {
	t.Helper()
	results, err := RunCluster(cc, cfg, func(p *cluster.Proc) App {
		return &coupledMap{p: p, r: 3.2, eps: 0.3, threshold: threshold, computeOp: 500, repairOp: 250}
	})
	if err != nil {
		t.Fatal(err)
	}
	return results
}

func finals(results []Result) []float64 {
	out := make([]float64, 0, len(results))
	for _, r := range results {
		out = append(out, r.Final...)
	}
	return out
}

// serialCoupled computes the reference trajectory without any cluster.
func serialCoupled(p, iters int) []float64 {
	r, eps := 3.2, 0.3
	f := func(x float64) float64 { return r * x * (1 - x) }
	x := make([]float64, p)
	for j := range x {
		x[j] = 0.25 + 0.5*float64(j)/float64(p)
	}
	for t := 0; t < iters; t++ {
		next := make([]float64, p)
		sum := 0.0
		for _, v := range x {
			sum += f(v)
		}
		mean := sum / float64(p)
		for j, v := range x {
			next[j] = (1-eps)*f(v) + eps*mean
		}
		x = next
	}
	return x
}

func TestBlockingMatchesSerialReference(t *testing.T) {
	const p, iters = 4, 20
	results := runCoupled(t, uniformCluster(p, 0.01), Config{FW: 0, MaxIter: iters}, 0.01)
	want := serialCoupled(p, iters)
	got := finals(results)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("var %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestZeroThresholdSpeculationIsExact(t *testing.T) {
	// With threshold 0 every imperfect prediction is repaired from actual
	// values. For FW=1, sends are always validated first, so the speculative
	// run must reproduce the blocking run exactly. For FW>=2 the same holds
	// under the HoldSends ablation (which forbids sending values computed
	// from unvalidated inputs).
	const p, iters = 4, 25
	want := serialCoupled(p, iters)
	cases := []Config{
		{FW: 1, MaxIter: iters},
		{FW: 2, MaxIter: iters, HoldSends: true},
		{FW: 3, MaxIter: iters, HoldSends: true},
	}
	for _, cfg := range cases {
		results := runCoupled(t, uniformCluster(p, 0.01), cfg, 0)
		got := finals(results)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Errorf("FW=%d hold=%v var %d: got %v, want %v", cfg.FW, cfg.HoldSends, i, got[i], want[i])
			}
		}
		agg := Aggregate(results)
		if agg.SpecsMade == 0 {
			t.Errorf("FW=%d: no speculations made", cfg.FW)
		}
		if agg.Repairs == 0 {
			t.Errorf("FW=%d: zero threshold but no repairs", cfg.FW)
		}
	}
}

func TestSpeculativeSendsStayBounded(t *testing.T) {
	// FW>=2 without HoldSends transmits values computed from unvalidated
	// inputs; the trajectory may deviate from the blocking run, but for this
	// bounded map it must stay in the map's invariant interval (0, 1).
	const p, iters = 4, 25
	results := runCoupled(t, uniformCluster(p, 0.01), Config{FW: 2, MaxIter: iters}, 0)
	for _, v := range finals(results) {
		if !(v > 0 && v < 1) || math.IsNaN(v) {
			t.Errorf("value escaped invariant interval: %v", v)
		}
	}
	agg := Aggregate(results)
	if agg.SpecsMade == 0 || agg.SpecsChecked+agg.SpecsSuperseded != agg.SpecsMade {
		t.Errorf("inconsistent spec accounting: %+v", agg)
	}
}

func TestLooseThresholdStaysNearReference(t *testing.T) {
	const p, iters = 4, 25
	want := serialCoupled(p, iters)
	results := runCoupled(t, uniformCluster(p, 0.01), Config{FW: 1, MaxIter: iters}, 0.05)
	got := finals(results)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 0.25 {
			t.Errorf("var %d drifted: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestPerfectPredictionNeverRepairs(t *testing.T) {
	const p, iters = 3, 15
	results, err := RunCluster(uniformCluster(p, 0.01),
		Config{FW: 1, MaxIter: iters, Predictor: predict.Linear{}},
		func(pr *cluster.Proc) App { return &driftApp{p: pr, threshold: 1e-9} })
	if err != nil {
		t.Fatal(err)
	}
	agg := Aggregate(results)
	if agg.SpecsMade == 0 {
		t.Fatal("no speculations made")
	}
	// The very first speculated round has only one snapshot of history, so
	// the linear predictor degrades to zero-order there and misses; from the
	// second round on it must be exact. Hence at most one bad speculation
	// per (proc, peer) pair.
	if agg.SpecsBad > p*(p-1) {
		t.Errorf("SpecsBad = %d, want <= %d (startup round only)", agg.SpecsBad, p*(p-1))
	}
	if agg.Repairs > p {
		t.Errorf("Repairs = %d, want <= %d", agg.Repairs, p)
	}
	// Values must equal the blocking run.
	blocking, err := RunCluster(uniformCluster(p, 0.01),
		Config{FW: 0, MaxIter: iters},
		func(pr *cluster.Proc) App { return &driftApp{p: pr, threshold: 1e-9} })
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if d := MaxAbsErr(results[i].Final, blocking[i].Final); d > 1e-9 {
			t.Errorf("proc %d: speculative differs from blocking by %g", i, d)
		}
	}
}

func TestSpeculationMasksLatency(t *testing.T) {
	// Two equal processors, compute time per iteration 0.5s (500 ops at
	// 1000 ops/s), link latency 2s. Blocking pays the latency every
	// iteration; speculation overlaps it.
	const iters = 30
	cc := uniformCluster(2, 2.0)
	noSpec := runCoupled(t, cc, Config{FW: 0, MaxIter: iters}, 0.5)
	spec := runCoupled(t, uniformCluster(2, 2.0), Config{FW: 1, MaxIter: iters}, 0.5)
	tNo := TotalTime(noSpec)
	tSpec := TotalTime(spec)
	if tSpec >= tNo {
		t.Fatalf("speculation did not help: spec=%g nospec=%g", tSpec, tNo)
	}
	// Blocking: >= latency per iteration. Speculative with latency > compute:
	// still bounded below by the latency chain, but far less than blocking's
	// compute+latency serialization.
	if tNo < float64(iters)*2.0 {
		t.Errorf("blocking run implausibly fast: %g", tNo)
	}
	improvement := (tNo - tSpec) / tNo
	if improvement < 0.1 {
		t.Errorf("improvement only %.1f%%", improvement*100)
	}
}

func TestLargerFWMasksTransientSpike(t *testing.T) {
	// A transient 6s spike on the path 0→1 around t=1. FW=2 can ride
	// through more of it than FW=1.
	mk := func() cluster.Config {
		return cluster.Config{
			Machines: cluster.UniformMachines(2, 1000),
			Net: netmodel.TransientSpike{
				Inner: netmodel.Fixed{D: 0.3},
				Src:   0, Dst: 1,
				From: 0.5, Until: 1.5, Extra: 6,
			},
		}
	}
	const iters = 20
	t1 := TotalTime(runCoupled(t, mk(), Config{FW: 1, MaxIter: iters}, 0.5))
	t2 := TotalTime(runCoupled(t, mk(), Config{FW: 2, MaxIter: iters}, 0.5))
	t0 := TotalTime(runCoupled(t, mk(), Config{FW: 0, MaxIter: iters}, 0.5))
	if !(t2 <= t1 && t1 <= t0) {
		t.Errorf("want t(FW2) <= t(FW1) <= t(FW0), got %g, %g, %g", t2, t1, t0)
	}
	if t2 >= t0 {
		t.Errorf("FW=2 no better than blocking: %g vs %g", t2, t0)
	}
}

func TestHoldSendsCompletesAndSpeculates(t *testing.T) {
	// The relative speed of HoldSends vs speculative sends depends on phase
	// alignment (covered by the ablation benchmark); here we verify the mode
	// runs to completion, still speculates, and still masks some latency
	// relative to blocking.
	const iters = 20
	held := runCoupled(t, uniformCluster(3, 1.0), Config{FW: 2, MaxIter: iters, HoldSends: true}, 0.5)
	blocking := runCoupled(t, uniformCluster(3, 1.0), Config{FW: 0, MaxIter: iters}, 0.5)
	if Aggregate(held).SpecsMade == 0 {
		t.Error("HoldSends made no speculations")
	}
	if TotalTime(held) >= TotalTime(blocking) {
		t.Errorf("HoldSends (%g) not faster than blocking (%g)", TotalTime(held), TotalTime(blocking))
	}
}

func TestStatsConsistency(t *testing.T) {
	results := runCoupled(t, uniformCluster(4, 0.5), Config{FW: 2, MaxIter: 15}, 0.01)
	for _, r := range results {
		s := r.Stats
		if s.SpecsChecked+s.SpecsSuperseded != s.SpecsMade {
			t.Errorf("proc %d: checked %d + superseded %d != made %d", r.Proc, s.SpecsChecked, s.SpecsSuperseded, s.SpecsMade)
		}
		if s.SpecsBad > s.SpecsChecked {
			t.Errorf("proc %d: bad %d > checked %d", r.Proc, s.SpecsBad, s.SpecsChecked)
		}
		if s.UnitsBad > s.UnitsTotal {
			t.Errorf("proc %d: units bad %d > total %d", r.Proc, s.UnitsBad, s.UnitsTotal)
		}
		if s.Iters != 15 {
			t.Errorf("proc %d: iters %d", r.Proc, s.Iters)
		}
		if s.TotalTime <= 0 {
			t.Errorf("proc %d: non-positive total time", r.Proc)
		}
		if s.BadFraction() < 0 || s.BadFraction() > 1 {
			t.Errorf("proc %d: BadFraction out of range", r.Proc)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() ([]float64, float64) {
		results := runCoupled(t, uniformCluster(4, 0.7), Config{FW: 2, MaxIter: 20}, 0.01)
		return finals(results), TotalTime(results)
	}
	v1, t1 := run()
	v2, t2 := run()
	if t1 != t2 {
		t.Errorf("times differ: %g vs %g", t1, t2)
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Errorf("values differ at %d: %v vs %v", i, v1[i], v2[i])
		}
	}
}

func TestSingleProcessorNeedsNoMessages(t *testing.T) {
	results := runCoupled(t, uniformCluster(1, 1000), Config{FW: 1, MaxIter: 10}, 0.01)
	if len(results) != 1 {
		t.Fatalf("results = %d", len(results))
	}
	s := results[0].Stats
	if s.SpecsMade != 0 || s.CommTime != 0 {
		t.Errorf("single proc made specs or waited: %+v", s)
	}
	want := serialCoupled(1, 10)
	if math.Abs(results[0].Final[0]-want[0]) > 1e-12 {
		t.Errorf("single proc value %v, want %v", results[0].Final[0], want[0])
	}
}

func TestConfigValidation(t *testing.T) {
	_, err := RunCluster(uniformCluster(2, 0.1), Config{FW: 1, MaxIter: 0},
		func(p *cluster.Proc) App { return &driftApp{p: p} })
	if err == nil {
		t.Error("MaxIter=0 should error")
	}
	_, err = RunCluster(uniformCluster(2, 0.1), Config{FW: -1, MaxIter: 5},
		func(p *cluster.Proc) App { return &driftApp{p: p} })
	if err == nil {
		t.Error("negative FW should error")
	}
}

func TestRelErrCheck(t *testing.T) {
	r := RelErrCheck(0.1, 2, []float64{1.0, 2.0, 3.0}, []float64{1.05, 2.5, 3.0})
	if r.Total != 3 {
		t.Errorf("Total = %d", r.Total)
	}
	if r.Bad != 1 { // only the middle element exceeds 10% relative error
		t.Errorf("Bad = %d, want 1", r.Bad)
	}
	if r.Ops != 6 {
		t.Errorf("Ops = %g, want 6", r.Ops)
	}
	// Length mismatch invalidates everything.
	r2 := RelErrCheck(0.1, 1, []float64{1}, []float64{1, 2})
	if r2.Bad != 2 {
		t.Errorf("mismatched lengths: Bad = %d, want 2", r2.Bad)
	}
	// A NaN never passes, whichever side it is on and however loose the
	// threshold.
	nan := math.NaN()
	r3 := RelErrCheck(math.Inf(1), 1, []float64{nan, 2, 3, nan}, []float64{1, nan, 3, nan})
	if r3.Bad != 3 {
		t.Errorf("NaN elements: Bad = %d, want 3", r3.Bad)
	}
	// Nor does an infinite error, even against an infinite bound.
	inf := math.Inf(1)
	if r4 := RelErrCheck(inf, 1, []float64{1, inf, -inf, 1}, []float64{inf, 1, -inf, 1}); r4.Bad != 3 {
		t.Errorf("infinite elements: Bad = %d, want 3", r4.Bad)
	}
}

func TestMaxAbsErr(t *testing.T) {
	if got := MaxAbsErr([]float64{1, 5, 2}, []float64{1, 2, 2}); got != 3 {
		t.Errorf("MaxAbsErr = %g, want 3", got)
	}
	if got := MaxAbsErr(nil, nil); got != 0 {
		t.Errorf("empty MaxAbsErr = %g, want 0", got)
	}
	for _, a := range [][]float64{{math.NaN(), 5, 2}, {1, 5, math.NaN()}} {
		if got := MaxAbsErr(a, []float64{1, 2, 2}); !math.IsInf(got, 1) {
			t.Errorf("MaxAbsErr(%v) = %g, want +Inf", a, got)
		}
	}
}

func TestHeterogeneousClusterBalancedByApp(t *testing.T) {
	// Heterogeneous capacities with equal per-proc ops: the slow machine
	// dominates; this just exercises the engine on unequal machines.
	cc := cluster.Config{
		Machines: cluster.LinearMachines(4, 1000, 10),
		Net:      netmodel.Fixed{D: 0.05},
	}
	results := runCoupled(t, cc, Config{FW: 1, MaxIter: 10}, 0.01)
	if TotalTime(results) <= 0 {
		t.Error("no time elapsed")
	}
	for _, r := range results {
		if len(r.Final) != 1 {
			t.Errorf("proc %d: final len %d", r.Proc, len(r.Final))
		}
	}
}
