package pagerank

import (
	"math"
	"testing"
	"testing/quick"

	"specomp/internal/cluster"
	"specomp/internal/core"
	"specomp/internal/netmodel"
	"specomp/internal/partition"
)

func TestRankSumsToOneProperty(t *testing.T) {
	f := func(seed int64, n8, deg8 uint8) bool {
		n := int(n8%100) + 10
		deg := int(deg8%5) + 1
		g := NewRandomGraph(n, deg, seed)
		p := NewProblem(g, 0.85)
		r := p.SerialSolve(30)
		return math.Abs(Sum(r)-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDanglingMassRedistributed(t *testing.T) {
	g := NewRandomGraph(50, 3, 1)
	g.Dangle(10)
	p := NewProblem(g, 0.85)
	r := p.SerialSolve(50)
	if math.Abs(Sum(r)-1) > 1e-9 {
		t.Errorf("rank mass leaked: sum = %v", Sum(r))
	}
	for i, v := range r {
		if v <= 0 {
			t.Errorf("rank[%d] = %v, want positive", i, v)
		}
	}
}

func TestPowerIterationConverges(t *testing.T) {
	g := NewRandomGraph(80, 4, 2)
	p := NewProblem(g, 0.85)
	r1 := p.SerialSolve(40)
	r2 := p.SerialSolve(41)
	if d := L1Diff(r1, r2); d > 1e-8 {
		t.Errorf("not converged after 40 sweeps: L1 change %g", d)
	}
}

func TestHubGetsMoreRank(t *testing.T) {
	// A star: every vertex links to vertex 0 (plus the ring).
	g := &Graph{N: 20, Out: make([][]int, 20)}
	for v := 0; v < 20; v++ {
		g.Out[v] = []int{(v + 1) % 20}
		if v != 0 {
			g.Out[v] = append(g.Out[v], 0)
		}
	}
	p := NewProblem(g, 0.85)
	r := p.SerialSolve(60)
	for v := 1; v < 20; v++ {
		if r[0] <= r[v] {
			t.Fatalf("hub rank %v not above vertex %d rank %v", r[0], v, r[v])
		}
	}
}

func runDistributed(t *testing.T, prob *Problem, procs int, cfg core.Config, theta, tol float64) ([]core.Result, []float64) {
	t.Helper()
	machines := cluster.LinearMachines(procs, 1e6, 2)
	blocks := partition.Blocks(prob.G.N, cluster.Capacities(machines))
	results, err := core.RunCluster(
		cluster.Config{Machines: machines, Net: netmodel.Fixed{D: 0.03}},
		cfg,
		func(pr *cluster.Proc) core.App {
			app := NewApp(prob, blocks, pr.ID(), theta)
			app.Tol = tol
			return app
		})
	if err != nil {
		t.Fatal(err)
	}
	r := make([]float64, prob.G.N)
	for k, res := range results {
		copy(r[blocks[k][0]:blocks[k][1]], res.Final)
	}
	return results, r
}

func TestDistributedBlockingMatchesSerial(t *testing.T) {
	g := NewRandomGraph(60, 4, 3)
	p := NewProblem(g, 0.85)
	const iters = 20
	want := p.SerialSolve(iters)
	_, got := runDistributed(t, p, 4, core.Config{FW: 0, MaxIter: iters}, 0.01, 0)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("rank[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSpeculativePageRankConverges(t *testing.T) {
	g := NewRandomGraph(60, 4, 4)
	p := NewProblem(g, 0.85)
	const iters = 60
	want := p.SerialSolve(200) // essentially the fixed point
	// θ = 1.1 is progress-relative bounded staleness: zero-order speculation
	// is accepted iff no worse than reusing last sweep's value, so the
	// injected noise contracts along with the iteration and the fixed point
	// is still reached.
	// Bounded staleness slows convergence (stale-by-one data roughly halves
	// the contraction rate), so after 60 sweeps the iterate is near — not
	// at — the fixed point.
	results, got := runDistributed(t, p, 4, core.Config{FW: 1, MaxIter: iters}, 1.1, 0)
	if d := L1Diff(got, want); d > 1e-4 {
		t.Errorf("speculative ranks off by L1 %g", d)
	}
	if core.Aggregate(results).SpecsMade == 0 {
		t.Error("no speculation happened")
	}
	if math.Abs(Sum(got)-1) > 1e-4 {
		t.Errorf("speculative rank mass = %v", Sum(got))
	}
}

func TestConvergenceStopperConsistent(t *testing.T) {
	g := NewRandomGraph(60, 4, 5)
	p := NewProblem(g, 0.85)
	results, _ := runDistributed(t, p, 3, core.Config{FW: 1, MaxIter: 500}, 1.1, 1e-10)
	iters := results[0].Stats.Iters
	if iters >= 500 {
		t.Fatal("never converged")
	}
	for _, r := range results {
		if !r.Converged || r.Stats.Iters != iters {
			t.Errorf("proc %d: converged=%v iters=%d (expected %d)", r.Proc, r.Converged, r.Stats.Iters, iters)
		}
	}
}

// TestBlocksFromCounts checks the vertex ranges the app is built from:
// capacities 2:3 apportion 5 vertices as counts {2, 3}, which become
// consecutive ranges, and each processor's initial block spans its range.
func TestBlocksFromCounts(t *testing.T) {
	b := partition.Blocks(5, []float64{2, 3})
	if b[0] != [2]int{0, 2} || b[1] != [2]int{2, 5} {
		t.Errorf("blocks = %v", b)
	}
	prob := NewProblem(NewRandomGraph(5, 2, 1), 0.85)
	for i := range b {
		if got := len(NewApp(prob, b, i, 0).InitLocal()); got != b[i][1]-b[i][0] {
			t.Errorf("processor %d initial block has %d vertices, want %d", i, got, b[i][1]-b[i][0])
		}
	}
}
