package core

import (
	"math"
	"testing"
	"testing/quick"

	"specomp/internal/cluster"
	"specomp/internal/netmodel"
	"specomp/internal/predict"
)

// pubApp exchanges only the first element of its two-element partition —
// a minimal Publisher. The second element evolves locally; peers only read
// the published first element.
type pubApp struct {
	pid, p int
}

func (a *pubApp) InitLocal() []float64 { return []float64{float64(a.pid + 1), 100} }

func (a *pubApp) Compute(view [][]float64, t int) []float64 {
	sum := 0.0
	for k, part := range view {
		if k == a.pid {
			sum += part[0]
		} else {
			sum += part[0] // published element only
		}
	}
	local := view[a.pid]
	return []float64{local[0] + 0.1, local[1] + sum}
}

func (a *pubApp) ComputeOps() float64 { return 100 }

func (a *pubApp) Check(peer int, pred, act, local []float64, t int) CheckResult {
	if len(pred) != 1 || len(act) != 1 {
		// Published payloads must be the 1-element projection.
		return CheckResult{Bad: len(act), Total: len(act), Ops: 1}
	}
	return RelErrCheck(1e-9, 1, pred, act)
}

func (a *pubApp) RepairOps(r CheckResult) float64 { return 100 }

func (a *pubApp) Publish(local []float64) []float64 { return local[:1] }

func TestPublisherProjectsMessages(t *testing.T) {
	const p, iters = 3, 10
	results, err := RunCluster(uniformCluster(p, 0.05),
		Config{FW: 1, MaxIter: iters, Predictor: predict.Linear{}},
		func(pr *cluster.Proc) App { return &pubApp{pid: pr.ID(), p: pr.P()} })
	if err != nil {
		t.Fatal(err)
	}
	// The published element evolves affinely (x += 0.1), so the linear
	// predictor is exact once history exists and nothing is repaired after
	// the startup round.
	agg := Aggregate(results)
	if agg.SpecsMade == 0 {
		t.Fatal("no speculation")
	}
	if agg.SpecsBad > p*(p-1) {
		t.Errorf("SpecsBad = %d beyond the startup round", agg.SpecsBad)
	}
	// Bytes on the wire reflect the projection: 1 float per message, not 2.
	// (header is 64 bytes; payload 8 bytes.)
	for _, r := range results {
		if len(r.Final) != 2 {
			t.Errorf("proc %d: final %v", r.Proc, r.Final)
		}
	}
}

func TestPublisherReducesTraffic(t *testing.T) {
	run := func(pub bool) int {
		c := cluster.New(cluster.Config{
			Machines: cluster.UniformMachines(2, 1000),
			Net:      netmodel.Fixed{D: 0.01},
		})
		var bytes int
		c.Start(func(pr *cluster.Proc) {
			var app App
			if pub {
				app = &pubApp{pid: pr.ID(), p: pr.P()}
			} else {
				app = &noPubApp{pid: pr.ID(), p: pr.P()}
			}
			if _, err := Run(pr, app, Config{FW: 1, MaxIter: 5}); err != nil {
				t.Error(err)
			}
			if pr.ID() == 0 {
				sent, _, b := pr.Stats()
				_ = sent
				bytes = b
			}
		})
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return bytes
	}
	withPub := run(true)
	withoutPub := run(false)
	if withPub >= withoutPub {
		t.Errorf("Publisher did not shrink traffic: %d vs %d bytes", withPub, withoutPub)
	}
}

// noPubApp is pubApp's twin without the Publisher method (no embedding, so
// nothing is promoted): whole two-element partitions travel on the wire.
type noPubApp struct {
	pid, p int
}

func (a *noPubApp) InitLocal() []float64 { return []float64{float64(a.pid + 1), 100} }

func (a *noPubApp) Compute(view [][]float64, t int) []float64 {
	sum := 0.0
	for _, part := range view {
		sum += part[0]
	}
	local := view[a.pid]
	return []float64{local[0] + 0.1, local[1] + sum}
}

func (a *noPubApp) ComputeOps() float64 { return 100 }

func (a *noPubApp) Check(peer int, pred, act, local []float64, t int) CheckResult {
	return RelErrCheck(1e-9, 1, pred, act)
}

func (a *noPubApp) RepairOps(r CheckResult) float64 { return 100 }

// stopApp converges (constant values) and stops via Stopper after a fixed
// iteration.
type stopApp struct {
	pid, p   int
	stopIter int
}

func (a *stopApp) InitLocal() []float64 { return []float64{float64(a.pid)} }

func (a *stopApp) Compute(view [][]float64, t int) []float64 {
	out := make([]float64, 1)
	out[0] = view[a.pid][0]
	return out
}

func (a *stopApp) ComputeOps() float64 { return 50 }

func (a *stopApp) Check(peer int, pred, act, local []float64, t int) CheckResult {
	return RelErrCheck(1e-9, 1, pred, act)
}

func (a *stopApp) RepairOps(r CheckResult) float64 { return 50 }

func (a *stopApp) Done(view [][]float64, t int) bool { return t >= a.stopIter }

func (a *stopApp) DoneOps() float64 { return 1 }

func TestStopperTerminatesAllProcessorsConsistently(t *testing.T) {
	for _, fw := range []int{0, 1, 2} {
		results, err := RunCluster(uniformCluster(3, 0.05),
			Config{FW: fw, MaxIter: 100},
			func(pr *cluster.Proc) App { return &stopApp{pid: pr.ID(), p: pr.P(), stopIter: 7} })
		if err != nil {
			t.Fatalf("FW=%d: %v", fw, err)
		}
		for _, r := range results {
			if !r.Converged {
				t.Errorf("FW=%d proc %d: not converged", fw, r.Proc)
			}
			if r.Stats.Iters != 8 {
				t.Errorf("FW=%d proc %d: iters = %d, want 8", fw, r.Proc, r.Stats.Iters)
			}
			if len(r.Final) != 1 {
				t.Errorf("FW=%d proc %d: missing final value", fw, r.Proc)
			}
		}
	}
}

func TestStopperNeverFiringRunsToMaxIter(t *testing.T) {
	results, err := RunCluster(uniformCluster(2, 0.05),
		Config{FW: 1, MaxIter: 12},
		func(pr *cluster.Proc) App { return &stopApp{pid: pr.ID(), p: pr.P(), stopIter: 1 << 30} })
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Converged || r.Stats.Iters != 12 {
			t.Errorf("proc %d: converged=%v iters=%d", r.Proc, r.Converged, r.Stats.Iters)
		}
	}
}

func TestBackwardWindowFeedsPredictor(t *testing.T) {
	// The quadratic predictor needs 3 snapshots. On a quadratic trajectory
	// (x(t+1) = x(t) + t) it is exact once BW >= 3, inexact with BW = 2.
	quadApp := func(pr *cluster.Proc) App { return &quadDrift{pid: pr.ID()} }
	run := func(bw int, pred predict.Predictor) int {
		results, err := RunCluster(uniformCluster(3, 0.05),
			Config{FW: 1, BW: bw, MaxIter: 20, Predictor: pred}, quadApp)
		if err != nil {
			t.Fatal(err)
		}
		return Aggregate(results).SpecsBad
	}
	badPoly := run(3, predict.Polynomial{Order: 2})
	badLin := run(2, predict.Linear{})
	// Linear misses every round on a quadratic (error 1 per step vs tight
	// threshold); quadratic only misses during startup.
	if badPoly >= badLin {
		t.Errorf("poly bad=%d not below linear bad=%d", badPoly, badLin)
	}
}

type quadDrift struct{ pid int }

func (a *quadDrift) InitLocal() []float64 { return []float64{float64(a.pid)} }

func (a *quadDrift) Compute(view [][]float64, t int) []float64 {
	return []float64{view[a.pid][0] + float64(t)}
}

func (a *quadDrift) ComputeOps() float64 { return 50 }

func (a *quadDrift) Check(peer int, pred, act, local []float64, t int) CheckResult {
	return RelErrCheck(1e-9, 1, pred, act)
}

func (a *quadDrift) RepairOps(r CheckResult) float64 { return 50 }

// Property: for random small configurations, the engine completes, checks
// every speculation it did not supersede, and produces identical results on a second run.
func TestEngineInvariantsProperty(t *testing.T) {
	f := func(p8, fw8, iters8 uint8, th8 uint8) bool {
		p := int(p8%4) + 2
		fw := int(fw8 % 3)
		iters := int(iters8%15) + 3
		threshold := float64(th8%100) / 500 // 0 .. 0.2
		run := func() ([]Result, error) {
			return RunCluster(uniformCluster(p, 0.03),
				Config{FW: fw, MaxIter: iters},
				func(pr *cluster.Proc) App {
					return &coupledMap{p: pr, r: 3.1, eps: 0.25, threshold: threshold, computeOp: 200, repairOp: 100}
				})
		}
		r1, err := run()
		if err != nil {
			return false
		}
		r2, err := run()
		if err != nil {
			return false
		}
		for i := range r1 {
			s := r1[i].Stats
			if s.SpecsChecked+s.SpecsSuperseded != s.SpecsMade || s.SpecsBad > s.SpecsChecked {
				return false
			}
			if s.Iters != iters {
				return false
			}
			if math.IsNaN(r1[i].Final[0]) {
				return false
			}
			if r1[i].Final[0] != r2[i].Final[0] || s.TotalTime != r2[i].Stats.TotalTime {
				return false // determinism
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// badOnceApp forces exactly one failed check mid-run so cascades can be
// observed under deep forward windows.
type badOnceApp struct {
	pid     int
	badIter int
}

func (a *badOnceApp) InitLocal() []float64 { return []float64{float64(a.pid)} }

func (a *badOnceApp) Compute(view [][]float64, t int) []float64 {
	sum := 0.0
	for _, p := range view {
		sum += p[0]
	}
	return []float64{view[a.pid][0]*0.5 + 0.01*sum}
}

func (a *badOnceApp) ComputeOps() float64 { return 100 }

func (a *badOnceApp) Check(peer int, pred, act, local []float64, t int) CheckResult {
	if t == a.badIter {
		return CheckResult{Bad: 1, Total: 1, Ops: 1}
	}
	return CheckResult{Bad: 0, Total: 1, Ops: 1}
}

func (a *badOnceApp) RepairOps(r CheckResult) float64 { return 50 }

func TestCascadeRecomputesDeepPipeline(t *testing.T) {
	// With FW=3 the frontier runs ahead of validation, so a failed check at
	// iteration 5 must cascade through the already-computed iterations.
	results, err := RunCluster(uniformCluster(3, 1.0),
		Config{FW: 3, MaxIter: 15},
		func(pr *cluster.Proc) App { return &badOnceApp{pid: pr.ID(), badIter: 5} })
	if err != nil {
		t.Fatal(err)
	}
	agg := Aggregate(results)
	if agg.Repairs == 0 {
		t.Fatal("forced bad check did not trigger a repair")
	}
	if agg.CascadeRedos == 0 {
		t.Error("deep pipeline repair did not cascade")
	}
	// FW=1 never cascades (nothing is computed beyond the validated iter).
	shallow, err := RunCluster(uniformCluster(3, 1.0),
		Config{FW: 1, MaxIter: 15},
		func(pr *cluster.Proc) App { return &badOnceApp{pid: pr.ID(), badIter: 5} })
	if err != nil {
		t.Fatal(err)
	}
	if got := Aggregate(shallow).CascadeRedos; got != 0 {
		t.Errorf("FW=1 cascaded %d times", got)
	}
}

// chainApp depends only on adjacent processor IDs (a 1-D chain).
type chainApp struct {
	pid, p int
}

func (a *chainApp) InitLocal() []float64 { return []float64{float64(a.pid)} }

func (a *chainApp) Compute(view [][]float64, t int) []float64 {
	sum := view[a.pid][0]
	n := 1.0
	if a.pid > 0 {
		sum += view[a.pid-1][0]
		n++
	}
	if a.pid < a.p-1 {
		sum += view[a.pid+1][0]
		n++
	}
	// Non-neighbour entries must be nil.
	for k, part := range view {
		if k != a.pid && (k < a.pid-1 || k > a.pid+1) && part != nil {
			panic("received a non-neighbour payload")
		}
	}
	return []float64{sum / n}
}

func (a *chainApp) ComputeOps() float64 { return 60 }

func (a *chainApp) Check(peer int, pred, act, local []float64, t int) CheckResult {
	return RelErrCheck(0.05, 1, pred, act)
}

func (a *chainApp) RepairOps(r CheckResult) float64 { return 60 }

// Graph implements Grapher: each processor reads its chain neighbours.
func (a *chainApp) Graph(p int) *DepGraph {
	var edges []Edge
	for i := 1; i < p; i++ {
		edges = append(edges, Edge{From: i - 1, To: i}, Edge{From: i, To: i - 1})
	}
	g, err := NewDepGraph(p, edges)
	if err != nil {
		panic(err)
	}
	return g
}

func TestNeighborsRestrictExchange(t *testing.T) {
	const p, iters = 5, 10
	c := cluster.New(cluster.Config{
		Machines: cluster.UniformMachines(p, 1000),
		Net:      netmodel.Fixed{D: 0.05},
	})
	finals := make([][]float64, p)
	c.Start(func(pr *cluster.Proc) {
		res, err := Run(pr, &chainApp{pid: pr.ID(), p: p}, Config{FW: 1, MaxIter: iters})
		if err != nil {
			t.Error(err)
			return
		}
		finals[pr.ID()] = res.Final
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	// Interior processors send to exactly 2 neighbours per iteration; the
	// chain ends to 1.
	for i := 0; i < p; i++ {
		sent, _, _ := c.Proc(i).Stats()
		wantPeers := 2
		if i == 0 || i == p-1 {
			wantPeers = 1
		}
		if sent != wantPeers*iters {
			t.Errorf("proc %d sent %d messages, want %d", i, sent, wantPeers*iters)
		}
		if len(finals[i]) != 1 {
			t.Errorf("proc %d missing final", i)
		}
	}
	// The chain averages toward a consensus of the initial values.
	if finals[2][0] < 0.5 || finals[2][0] > 3.5 {
		t.Errorf("center value %v implausible", finals[2][0])
	}
}
