package realtime

import (
	"math"
	"testing"
	"time"

	"specomp/internal/core"
	"specomp/internal/inbox/inboxtest"
)

// rtMap is the same globally coupled logistic map used by the core tests,
// here exercised over real goroutines.
type rtMap struct {
	pid, p    int
	threshold float64
}

func (a *rtMap) f(x float64) float64 { return 2.9 * x * (1 - x) }

func (a *rtMap) InitLocal() []float64 {
	return []float64{0.2 + 0.5*float64(a.pid)/float64(a.p)}
}

func (a *rtMap) Compute(view [][]float64, t int) []float64 {
	sum := 0.0
	for _, part := range view {
		sum += a.f(part[0])
	}
	mean := sum / float64(len(view))
	x := view[a.pid][0]
	return []float64{0.6*a.f(x) + 0.4*mean}
}

func (a *rtMap) ComputeOps() float64 { return 1 }

func (a *rtMap) Check(peer int, pred, act, local []float64, t int) core.CheckResult {
	return core.RelErrCheck(a.threshold, 1, pred, act)
}

func (a *rtMap) RepairOps(r core.CheckResult) float64 { return 1 }

func serialRef(p, iters int) []float64 {
	f := func(x float64) float64 { return 2.9 * x * (1 - x) }
	x := make([]float64, p)
	for j := range x {
		x[j] = 0.2 + 0.5*float64(j)/float64(p)
	}
	for t := 0; t < iters; t++ {
		next := make([]float64, p)
		sum := 0.0
		for _, v := range x {
			sum += f(v)
		}
		mean := sum / float64(p)
		for j, v := range x {
			next[j] = 0.6*f(v) + 0.4*mean
		}
		x = next
	}
	return x
}

func TestBlockingMatchesSerial(t *testing.T) {
	const p, iters = 4, 25
	results, err := Run(Config{Procs: p, MaxIter: iters, FW: 0},
		func(pid, procs int) core.App { return &rtMap{pid: pid, p: procs, threshold: 0.01} })
	if err != nil {
		t.Fatal(err)
	}
	want := serialRef(p, iters)
	for i, r := range results {
		if math.Abs(r.Final[0]-want[i]) > 1e-12 {
			t.Errorf("proc %d: %v, want %v", i, r.Final[0], want[i])
		}
	}
}

func TestSpeculativeZeroThresholdMatchesSerial(t *testing.T) {
	const p, iters = 4, 25
	results, err := Run(Config{Procs: p, MaxIter: iters, FW: 1},
		func(pid, procs int) core.App { return &rtMap{pid: pid, p: procs, threshold: 0} })
	if err != nil {
		t.Fatal(err)
	}
	want := serialRef(p, iters)
	specs := 0
	for i, r := range results {
		if math.Abs(r.Final[0]-want[i]) > 1e-9 {
			t.Errorf("proc %d: %v, want %v", i, r.Final[0], want[i])
		}
		specs += r.Stats.SpecsMade
	}
	if specs == 0 {
		t.Error("no speculation happened")
	}
	// The full engine statistics record must be surfaced: the iteration
	// count proves it is populated.
	for _, r := range results {
		if r.Stats.Iters != iters {
			t.Errorf("proc %d: Stats.Iters=%d, want %d", r.Proc, r.Stats.Iters, iters)
		}
	}
}

// workMap adds real wall-clock work to each Compute so there is something
// to overlap the injected latency with.
type workMap struct {
	rtMap
	work time.Duration
}

func (a *workMap) Compute(view [][]float64, t int) []float64 {
	time.Sleep(a.work)
	return a.rtMap.Compute(view, t)
}

func TestSpeculationMasksWallClockLatency(t *testing.T) {
	const p, iters = 3, 12
	const delay = 8 * time.Millisecond
	run := func(fw int) time.Duration {
		results, err := Run(Config{Procs: p, MaxIter: iters, FW: fw, Delay: delay},
			func(pid, procs int) core.App {
				return &workMap{
					rtMap: rtMap{pid: pid, p: procs, threshold: 0.05},
					work:  6 * time.Millisecond,
				}
			})
		if err != nil {
			t.Fatal(err)
		}
		worst := time.Duration(0)
		for _, r := range results {
			if r.Elapsed > worst {
				worst = r.Elapsed
			}
		}
		return worst
	}
	blocking := run(0)
	spec := run(1)
	// Blocking pays ≈ delay + work per iteration; speculation overlaps them
	// to ≈ max(delay, work) — ideally a ~40% saving here, but wall-clock
	// timer slop on loaded single-core machines eats into it, so demand a
	// conservative 10%.
	if blocking < time.Duration(iters)*delay {
		t.Fatalf("blocking run implausibly fast: %v", blocking)
	}
	if spec > blocking*9/10 {
		t.Errorf("speculation saved too little wall time: spec %v vs blocking %v", spec, blocking)
	}
}

func TestLooseThresholdAcceptsSpeculation(t *testing.T) {
	const p, iters = 4, 40
	results, err := Run(Config{Procs: p, MaxIter: iters, FW: 1},
		func(pid, procs int) core.App { return &rtMap{pid: pid, p: procs, threshold: 0.5} })
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Stats.SpecsMade == 0 {
			t.Errorf("proc %d made no speculations", r.Proc)
		}
		if r.Stats.Repairs > r.Stats.SpecsMade/2 {
			t.Errorf("proc %d repaired %d of %d — loose threshold should accept most", r.Proc, r.Stats.Repairs, r.Stats.SpecsMade)
		}
		// The map converges to its fixed point regardless.
		want := 1 - 1/2.9
		if math.Abs(r.Final[0]-want) > 1e-3 {
			t.Errorf("proc %d: final %v, want ~%v", r.Proc, r.Final[0], want)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	factory := func(pid, procs int) core.App { return &rtMap{pid: pid, p: procs} }
	if _, err := Run(Config{Procs: 0, MaxIter: 1}, factory); err == nil {
		t.Error("Procs=0 accepted")
	}
	if _, err := Run(Config{Procs: 2, MaxIter: 0}, factory); err == nil {
		t.Error("MaxIter=0 accepted")
	}
	if _, err := Run(Config{Procs: 2, MaxIter: 1, FW: -1}, factory); err == nil {
		t.Error("negative FW accepted")
	}
}

func TestDeepForwardWindowOnGoroutines(t *testing.T) {
	// The shared engine gives the realtime substrate FW >= 2 for free.
	const p, iters = 4, 25
	results, err := Run(Config{Procs: p, MaxIter: iters, FW: 3},
		func(pid, procs int) core.App { return &rtMap{pid: pid, p: procs, threshold: 0.05} })
	if err != nil {
		t.Fatal(err)
	}
	specs := 0
	for _, r := range results {
		specs += r.Stats.SpecsMade
		if math.IsNaN(r.Final[0]) {
			t.Errorf("proc %d produced NaN", r.Proc)
		}
	}
	if specs == 0 {
		t.Error("no speculation at FW=3")
	}
	// The map still converges to its fixed point.
	want := 1 - 1/2.9
	for _, r := range results {
		if math.Abs(r.Final[0]-want) > 5e-2 {
			t.Errorf("proc %d: final %v, want ~%v", r.Proc, r.Final[0], want)
		}
	}
}

func TestSingleProcessor(t *testing.T) {
	results, err := Run(Config{Procs: 1, MaxIter: 10, FW: 1},
		func(pid, procs int) core.App { return &rtMap{pid: pid, p: procs, threshold: 0.01} })
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Stats.SpecsMade != 0 {
		t.Error("single proc speculated")
	}
}

// A run with a delay owes its holds to each inbox's timer; when Run returns
// those timers are released: no goroutine and no timer descriptor is left.
func TestRunReleasesInboxTimers(t *testing.T) {
	before := inboxtest.HeldNow()
	results, err := Run(Config{Procs: 3, MaxIter: 20, FW: 1, Delay: time.Millisecond},
		func(pid, procs int) core.App { return &rtMap{pid: pid, p: procs, threshold: 0.05} })
	if err != nil || len(results) != 3 {
		t.Fatalf("run: %d results, err %v", len(results), err)
	}
	inboxtest.Released(t, before)
}
