package pipeline

import (
	"math"
	"testing"

	"specomp/internal/checkpoint"
	"specomp/internal/cluster"
	"specomp/internal/core"
	"specomp/internal/faults"
	"specomp/internal/netmodel"
	"specomp/internal/realtime"
)

// runOnCluster executes the pipeline on the simulated cluster, one stage
// per processor under the given placement (nil = identity).
func runOnCluster(t *testing.T, g *Graph, place []int, cc cluster.Config, cfg core.Config) []core.Result {
	t.Helper()
	results, err := core.RunCluster(cc, cfg, func(p *cluster.Proc) core.App {
		app, err := g.AppAt(place, p.ID())
		if err != nil {
			t.Errorf("rank %d: %v", p.ID(), err)
			return nil
		}
		return app
	})
	if err != nil {
		t.Fatal(err)
	}
	return results
}

func maxDiff(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// TestThreeStageClusterExactAtFW1: with FW=1 and zero tolerances, every
// imperfect prediction is repaired before the stage's output is broadcast,
// so the speculative pipeline is bit-identical to lockstep evaluation —
// while still speculating (and repairing) every tick, because the slow
// source paces the cheap downstream stages.
func TestThreeStageClusterExactAtFW1(t *testing.T) {
	const width, iters = 8, 30
	g := ThreeStage(width, 42).SetUniformTol(0)
	want := g.Serial(iters)
	cc := cluster.Config{
		Machines: cluster.UniformMachines(g.Stages(), 1000),
		Net:      netmodel.Fixed{D: 0.3},
		Seed:     1,
	}
	results := runOnCluster(t, g, nil, cc, core.Config{FW: 1, MaxIter: iters})
	for s, r := range results {
		if d := maxDiff(r.Final, want[s]); d > 1e-12 {
			t.Errorf("stage %d diverged from serial by %g", s, d)
		}
	}
	if results[1].Stats.SpecsMade == 0 || results[2].Stats.SpecsMade == 0 {
		t.Error("downstream stages never speculated on upstream outputs")
	}
	if results[1].Stats.Repairs == 0 {
		t.Error("zero tolerance on a curved source should force repairs")
	}
	if results[0].Stats.SpecsMade != 0 {
		t.Error("the source has no in-edges and must not speculate")
	}
}

// TestThreeStageRealtimeExactAtFW1 runs the same pipeline on real
// goroutines and channels: scheduling is nondeterministic, but the FW=1 +
// zero-tolerance invariant (validated-or-repaired before broadcast) makes
// the finals exactly serial regardless of timing.
func TestThreeStageRealtimeExactAtFW1(t *testing.T) {
	const width, iters = 8, 25
	g := ThreeStage(width, 42).SetUniformTol(0)
	want := g.Serial(iters)
	results, err := realtime.Run(realtime.Config{Procs: g.Stages(), MaxIter: iters, FW: 1},
		func(pid, procs int) core.App { return g.App(pid) })
	if err != nil {
		t.Fatal(err)
	}
	for s, r := range results {
		if d := maxDiff(r.Final, want[s]); d > 1e-12 {
			t.Errorf("stage %d diverged from serial by %g", s, d)
		}
	}
}

// TestChainWithinToleranceAtFW2: a 5-hop retrieval-style chain with the
// stages' real tolerances and a deep forward window. Speculatively sent
// values are never re-sent, so the run is not bit-exact — but the stages
// contract, so tolerated errors decay downstream and the finals stay inside
// a tight envelope of the serial reference.
func TestChainWithinToleranceAtFW2(t *testing.T) {
	const width, iters = 8, 60
	g := Chain(5, width, 7)
	want := g.Serial(iters)
	cc := cluster.Config{
		Machines: cluster.UniformMachines(g.Stages(), 1000),
		Net:      netmodel.Fixed{D: 0.25},
		Seed:     13,
	}
	results := runOnCluster(t, g, nil, cc, core.Config{FW: 2, MaxIter: iters})
	for s, r := range results {
		if d := maxDiff(r.Final, want[s]); d > 0.05 {
			t.Errorf("stage %d drifted %g from serial (tolerance envelope 0.05)", s, d)
		}
	}
	agg := core.Aggregate(results)
	if agg.SpecsChecked == 0 {
		t.Error("no speculation checked anywhere in the chain")
	}
}

// TestPlacementPermuted: stage placement is part of the run configuration —
// stage s runs on rank place[s] and the rank-level DepGraph is permuted to
// match, so any assignment of stages to processors yields the same outputs.
func TestPlacementPermuted(t *testing.T) {
	const width, iters = 8, 24
	g := ThreeStage(width, 42).SetUniformTol(0)
	want := g.Serial(iters)
	place := []int{2, 0, 1} // source on rank 2, filter on rank 0, aggregate on rank 1
	cc := cluster.Config{
		Machines: cluster.UniformMachines(g.Stages(), 1000),
		Net:      netmodel.Fixed{D: 0.3},
		Seed:     2,
	}
	results := runOnCluster(t, g, place, cc, core.Config{FW: 1, MaxIter: iters})
	for s := 0; s < g.Stages(); s++ {
		r := results[place[s]]
		if d := maxDiff(r.Final, want[s]); d > 1e-12 {
			t.Errorf("stage %d on rank %d diverged from serial by %g", s, place[s], d)
		}
	}
	// The permuted graph is the one the engine speculates on: the source
	// (rank 2) has no in-edges and must never guess, its downstream (rank 0)
	// must. Virtual time makes this exact; the socket run of the same
	// placement (distnet's TestPipelinePlacementDistnet) can only observe it.
	if n := results[2].Stats.SpecsMade; n != 0 {
		t.Errorf("source rank 2 made %d speculations, want 0", n)
	}
	if results[0].Stats.SpecsMade == 0 {
		t.Error("rank 0 (stage 1) never speculated on the source")
	}
}

func TestPlacementValidation(t *testing.T) {
	g := ThreeStage(4, 1)
	if _, err := g.AppAt([]int{0, 1}, 0); err == nil {
		t.Error("short placement accepted")
	}
	if _, err := g.AppAt([]int{0, 0, 1}, 0); err == nil {
		t.Error("non-permutation placement accepted")
	}
	if _, err := g.DepGraph([]int{2, 1, 3}); err == nil {
		t.Error("out-of-range placement accepted")
	}
}

// TestMidPipelineCrashRestore extends the recover_test pattern to a DAG: a
// mid-pipeline stage crashes, restores its per-stage state from its
// checkpoint, and rejoins — while its downstream neighbour bridges the
// outage by speculating on the dead stage's output past the forward window.
func TestMidPipelineCrashRestore(t *testing.T) {
	const width, iters = 8, 80
	g := Chain(4, width, 21)
	want := g.Serial(iters)

	pipeCfg := func() core.Config {
		return core.Config{
			FW:              1,
			MaxIter:         iters,
			Deadline:        0.3,
			CheckpointEvery: 5,
			CheckpointStore: checkpoint.NewMemStore(),
			CheckpointOps:   20,
		}
	}
	reliable := func() cluster.Config {
		return cluster.Config{
			Machines:     cluster.UniformMachines(g.Stages(), 1000),
			Net:          netmodel.Fixed{D: 0.05},
			Reliable:     true,
			RetryTimeout: 0.5,
			Seed:         17,
		}
	}

	base := runOnCluster(t, g, nil, reliable(), pipeCfg())
	T := core.TotalTime(base)

	cc := reliable()
	cc.Crashes = faults.CrashSchedule{{Proc: 1, At: 0.4 * T, Downtime: 0.1 * T}}
	results := runOnCluster(t, g, nil, cc, pipeCfg())

	for s, r := range results {
		if d := maxDiff(r.Final, want[s]); d > 0.05 {
			t.Errorf("stage %d drifted %g from serial after the crash", s, d)
		}
	}
	crashed := results[1].Stats
	if crashed.Restores != 1 {
		t.Errorf("crashed stage restored %d times, want 1", crashed.Restores)
	}
	if crashed.Checkpoints == 0 {
		t.Error("crashed stage took no checkpoints")
	}
	if crashed.CatchupIters == 0 {
		t.Error("restored stage replayed no catch-up iterations")
	}
	downstream := results[2].Stats
	if downstream.Overruns == 0 {
		t.Error("downstream stage never bridged the outage on speculation")
	}
	if downstream.Reconciles == 0 {
		t.Error("downstream stage never reconciled bridged iterations")
	}
}

// TestSerialDeterminism: two Serial evaluations of the same seeded graph
// are identical — the reference the transports are judged against is
// itself stable.
func TestSerialDeterminism(t *testing.T) {
	a := ThreeStage(8, 5).Serial(40)
	b := ThreeStage(8, 5).Serial(40)
	for s := range a {
		if d := maxDiff(a[s], b[s]); d != 0 {
			t.Fatalf("stage %d differs across serial evaluations by %g", s, d)
		}
	}
}

// TestStageComputeMatchesSerialBitForBit drives every stage of the built-in
// pipelines in lockstep, both through Compute (results copied, as the value
// plane does for an app without the extension) and through ComputeInto into
// a fresh NaN-filled row (as the engine lends its slot, so a Step that reads
// out or skips an element shows), and requires Serial's rows to the bit.
func TestStageComputeMatchesSerialBitForBit(t *testing.T) {
	const ticks = 12
	for name, g := range map[string]*Graph{"three-stage": ThreeStage(8, 42), "chain": Chain(5, 8, 7)} {
		want := g.Serial(ticks)
		for _, lend := range []bool{false, true} {
			apps := make([]core.App, g.Stages())
			rows := make([][]float64, g.Stages())
			for s := range apps {
				apps[s] = g.App(s)
				rows[s] = apps[s].InitLocal()
			}
			for tick := 0; tick < ticks; tick++ {
				next := make([][]float64, len(rows))
				for s, a := range apps {
					if !lend {
						next[s] = append([]float64(nil), a.Compute(rows, tick)...)
						continue
					}
					next[s] = make([]float64, len(rows[s]))
					for i := range next[s] {
						next[s][i] = math.NaN()
					}
					a.(core.ComputerInto).ComputeInto(next[s], rows, tick)
				}
				rows = next
			}
			for s := range rows {
				for i := range rows[s] {
					if math.Float64bits(rows[s][i]) != math.Float64bits(want[s][i]) {
						t.Errorf("%s lend=%v stage %d value %d: %v, serial %v", name, lend, s, i, rows[s][i], want[s][i])
					}
				}
			}
		}
	}
}
