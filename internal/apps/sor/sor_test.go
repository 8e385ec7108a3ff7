package sor

import (
	"math"
	"testing"

	"specomp/internal/apps/heat"
	"specomp/internal/cluster"
	"specomp/internal/core"
	"specomp/internal/netmodel"
	"specomp/internal/partition"
)

func TestDefaultGridOmegaInRange(t *testing.T) {
	g := DefaultGrid(20, 10)
	if g.Omega <= 1 || g.Omega >= 2 {
		t.Errorf("omega = %v, want in (1, 2)", g.Omega)
	}
}

func TestSerialConvergesToSteadyState(t *testing.T) {
	g := DefaultGrid(16, 8)
	f := g.SerialRun(200)
	if d := heat.MaxDiff(f, g.SteadyState()); d > 1e-6 {
		t.Errorf("after 200 sweeps still %.2e from steady state", d)
	}
}

func TestSORConvergesMuchFasterThanJacobiWould(t *testing.T) {
	// The point of over-relaxation: tens of sweeps instead of thousands.
	g := DefaultGrid(24, 12)
	f := g.SerialRun(120)
	if d := heat.MaxDiff(f, g.SteadyState()); d > 1e-3 {
		t.Errorf("SOR did not converge in 120 sweeps: off by %.2e", d)
	}
}

// TestMaxDiffScoresNaNAsInf: the oracle every bound in this file goes
// through must fail a diverged field, whatever the bound.
func TestMaxDiffScoresNaNAsInf(t *testing.T) {
	g := DefaultGrid(8, 4)
	f := g.SerialRun(3)
	f[3][2] = math.NaN()
	if d := heat.MaxDiff(f, g.SteadyState()); !math.IsInf(d, 1) {
		t.Errorf("MaxDiff of a field with a NaN cell = %g, want +Inf", d)
	}
}

func TestBoundariesStayFixed(t *testing.T) {
	g := DefaultGrid(10, 6)
	f := g.SerialRun(50)
	for c := 0; c < g.Cols; c++ {
		if f[0][c] != g.Top || f[g.Rows-1][c] != g.Bottom {
			t.Fatalf("Dirichlet rows drifted at col %d", c)
		}
	}
}

func runDistributed(t *testing.T, g Grid, p int, cfg core.Config, theta float64) ([]core.Result, [][]float64) {
	t.Helper()
	machines := cluster.UniformMachines(p, 1e6)
	blocks := partition.Blocks(g.Rows, cluster.Capacities(machines))
	results, err := core.RunCluster(
		cluster.Config{Machines: machines, Net: netmodel.Fixed{D: 0.02}},
		cfg,
		func(pr *cluster.Proc) core.App { return NewApp(g, blocks, pr.ID(), theta) })
	if err != nil {
		t.Fatal(err)
	}
	field := make([][]float64, g.Rows)
	for k, res := range results {
		blo, bhi := blocks[k][0], blocks[k][1]
		for r := blo; r < bhi; r++ {
			field[r] = res.Final[(r-blo)*g.Cols : (r-blo+1)*g.Cols]
		}
	}
	return results, field
}

func TestDistributedBlockingMatchesSerialExactly(t *testing.T) {
	g := DefaultGrid(16, 8)
	const sweeps = 15
	want := g.SerialRun(sweeps)
	// One engine iteration is a half-sweep: red on even t, black on odd.
	_, got := runDistributed(t, g, 4, core.Config{FW: 0, MaxIter: 2 * sweeps}, 0.01)
	if d := heat.MaxDiff(got, want); d > 1e-12 {
		t.Errorf("distributed red-black differs from serial by %g", d)
	}
}

func TestSpeculativeSORConverges(t *testing.T) {
	g := DefaultGrid(16, 8)
	results, got := runDistributed(t, g, 4, core.Config{FW: 1, BW: 3, MaxIter: 400}, 1e-4)
	if d := heat.MaxDiff(got, g.SteadyState()); d > 0.01 {
		t.Errorf("speculative SOR %.4f from steady state", d)
	}
	if core.Aggregate(results).SpecsMade == 0 {
		t.Error("no speculation happened")
	}
}

func TestSpeculativeSORMasksLatency(t *testing.T) {
	g := DefaultGrid(32, 16)
	const iters = 120
	// Machines slow enough that each half-sweep's compute (~45 ms) covers
	// the 50 ms latency once overlapped.
	machinesSlow := func(fw int) float64 {
		machines := cluster.UniformMachines(4, 10_000)
		blocks := partition.Blocks(g.Rows, cluster.Capacities(machines))
		results, err := core.RunCluster(
			cluster.Config{Machines: machines, Net: netmodel.Fixed{D: 0.05}},
			core.Config{FW: fw, BW: 3, MaxIter: iters},
			func(pr *cluster.Proc) core.App { return NewApp(g, blocks, pr.ID(), 1e-3) })
		if err != nil {
			t.Fatal(err)
		}
		return core.TotalTime(results)
	}
	tBlock := machinesSlow(0)
	tSpec := machinesSlow(1)
	if tSpec >= tBlock {
		t.Errorf("speculation did not pay: %v vs %v", tSpec, tBlock)
	}
}

func TestRedBlackPartitionOfCells(t *testing.T) {
	reds, blacks := 0, 0
	for r := 0; r < 7; r++ {
		for c := 0; c < 9; c++ {
			if red(r, c) {
				reds++
			} else {
				blacks++
			}
		}
	}
	if math.Abs(float64(reds-blacks)) > 1 {
		t.Errorf("red/black imbalance: %d vs %d", reds, blacks)
	}
}
