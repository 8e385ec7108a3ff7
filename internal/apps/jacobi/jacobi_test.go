package jacobi

import (
	"math"
	"testing"

	"specomp/internal/cluster"
	"specomp/internal/core"
	"specomp/internal/netmodel"
	"specomp/internal/partition"
)

func TestGeneratorConsistency(t *testing.T) {
	p := NewDiagonallyDominant(40, 1)
	// b = A·solution by construction.
	if r := p.Residual(p.Solution); r > 1e-10 {
		t.Errorf("residual at exact solution = %g", r)
	}
	// Strict diagonal dominance.
	for i := range p.A {
		var off float64
		for j, v := range p.A[i] {
			if j != i {
				off += math.Abs(v)
			}
		}
		if math.Abs(p.A[i][i]) <= off {
			t.Errorf("row %d not strictly dominant", i)
		}
	}
}

func TestSerialSolveConverges(t *testing.T) {
	p := NewDiagonallyDominant(50, 2)
	x := p.SerialSolve(60)
	if e := p.ErrorNorm(x); e > 1e-8 {
		t.Errorf("error after 60 sweeps = %g", e)
	}
	// Error decreases monotonically (contraction).
	x1 := p.SerialSolve(5)
	x2 := p.SerialSolve(10)
	if p.ErrorNorm(x2) >= p.ErrorNorm(x1) {
		t.Error("Jacobi error not contracting")
	}
}

func runDistributed(t *testing.T, prob *Problem, p int, cfg core.Config, theta float64) ([]core.Result, []float64) {
	t.Helper()
	machines := cluster.LinearMachines(p, 1e6, 3)
	blocks := partition.Blocks(prob.N, cluster.Capacities(machines))
	results, err := core.RunCluster(
		cluster.Config{Machines: machines, Net: netmodel.Fixed{D: 0.02}},
		cfg,
		func(pr *cluster.Proc) core.App { return NewApp(prob, blocks, pr.ID(), theta) })
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, prob.N)
	for k, r := range results {
		copy(x[blocks[k][0]:blocks[k][1]], r.Final)
	}
	return results, x
}

func TestDistributedBlockingMatchesSerial(t *testing.T) {
	prob := NewDiagonallyDominant(60, 3)
	const iters = 25
	want := prob.SerialSolve(iters)
	_, got := runDistributed(t, prob, 4, core.Config{FW: 0, MaxIter: iters}, 0.01)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("x[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSpeculativeJacobiStillConverges(t *testing.T) {
	prob := NewDiagonallyDominant(60, 4)
	const iters = 60
	results, got := runDistributed(t, prob, 4, core.Config{FW: 1, MaxIter: iters}, 1e-3)
	if e := prob.ErrorNorm(got); e > 1e-5 {
		t.Errorf("speculative solve error = %g", e)
	}
	if core.Aggregate(results).SpecsMade == 0 {
		t.Error("no speculation happened")
	}
}

func TestSpeculativeJacobiFW2Converges(t *testing.T) {
	prob := NewDiagonallyDominant(60, 5)
	const iters = 80
	_, got := runDistributed(t, prob, 4, core.Config{FW: 2, MaxIter: iters}, 1e-3)
	if e := prob.ErrorNorm(got); e > 1e-4 {
		t.Errorf("FW=2 speculative solve error = %g", e)
	}
}

func TestConvergenceStopsEarlyAndConsistently(t *testing.T) {
	prob := NewDiagonallyDominant(60, 6)
	const maxIters = 500
	machines := cluster.LinearMachines(4, 1e6, 3)
	blocks := partition.Blocks(prob.N, cluster.Capacities(machines))
	results, err := core.RunCluster(
		cluster.Config{Machines: machines, Net: netmodel.Fixed{D: 0.02}},
		core.Config{FW: 1, MaxIter: maxIters},
		func(pr *cluster.Proc) core.App {
			return &App{
				prob: prob, pid: pr.ID(),
				lo: blocks[pr.ID()][0], hi: blocks[pr.ID()][1],
				blocks: blocks, Theta: 1e-4, Tol: 1e-10,
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	iters := results[0].Stats.Iters
	if iters >= maxIters {
		t.Fatalf("never converged (%d iterations)", iters)
	}
	for _, r := range results {
		if !r.Converged {
			t.Errorf("proc %d did not report convergence", r.Proc)
		}
		if r.Stats.Iters != iters {
			t.Errorf("proc %d stopped at %d, proc 0 at %d — inconsistent", r.Proc, r.Stats.Iters, iters)
		}
	}
	x := make([]float64, prob.N)
	for k, r := range results {
		copy(x[blocks[k][0]:blocks[k][1]], r.Final)
	}
	if e := prob.ErrorNorm(x); e > 1e-6 {
		t.Errorf("converged iterate error = %g", e)
	}
}

// TestBlocksFromCounts checks the row ranges the app is built from: the
// capacities below apportion 5 rows as counts {3, 0, 2}, which become
// consecutive ranges, and each processor's initial block spans its range.
func TestBlocksFromCounts(t *testing.T) {
	blocks := partition.Blocks(5, []float64{3, 0.01, 2})
	want := [][2]int{{0, 3}, {3, 3}, {3, 5}}
	prob := NewDiagonallyDominant(5, 1)
	for i := range want {
		if blocks[i] != want[i] {
			t.Errorf("blocks[%d] = %v, want %v", i, blocks[i], want[i])
		}
		if got := len(NewApp(prob, blocks, i, 0).InitLocal()); got != want[i][1]-want[i][0] {
			t.Errorf("processor %d initial block has %d rows, want %d", i, got, want[i][1]-want[i][0])
		}
	}
}
