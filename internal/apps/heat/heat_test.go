package heat

import (
	"math"
	"testing"

	"specomp/internal/cluster"
	"specomp/internal/core"
	"specomp/internal/netmodel"
	"specomp/internal/partition"
)

func TestInitialField(t *testing.T) {
	g := DefaultGrid(10, 8)
	f := g.Initial()
	if f[0][0] != 100 || f[9][7] != 0 {
		t.Errorf("boundary rows wrong: %v, %v", f[0][0], f[9][7])
	}
	if f[5][3] != 50 {
		t.Errorf("interior = %v, want 50", f[5][3])
	}
}

func TestSerialApproachesSteadyState(t *testing.T) {
	g := DefaultGrid(12, 6)
	f := g.SerialRun(4000)
	if d := MaxDiff(f, g.SteadyState()); d > 0.5 {
		t.Errorf("after 4000 steps still %.3f from steady state", d)
	}
}

func TestSerialStepPreservesBoundaries(t *testing.T) {
	g := DefaultGrid(8, 5)
	f := g.SerialRun(10)
	for c := 0; c < g.Cols; c++ {
		if f[0][c] != g.Top || f[g.Rows-1][c] != g.Bottom {
			t.Fatalf("Dirichlet rows drifted at col %d", c)
		}
	}
}

func TestMaxPrincipleHolds(t *testing.T) {
	// Explicit stable diffusion keeps values within the initial range.
	g := DefaultGrid(10, 10)
	f := g.SerialRun(500)
	for r := range f {
		for c := range f[r] {
			if f[r][c] < g.Bottom-1e-9 || f[r][c] > g.Top+1e-9 {
				t.Fatalf("value %g outside [%g, %g]", f[r][c], g.Bottom, g.Top)
			}
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

func TestDistributedBlockingMatchesSerial(t *testing.T) {
	g := DefaultGrid(16, 8)
	const iters = 30
	want := g.SerialRun(iters)
	_, got := runDistributed(t, g, 4, core.Config{FW: 0, MaxIter: iters}, 0.01)
	if d := MaxDiff(got, want); d > 1e-12 {
		t.Errorf("distributed differs from serial by %g", d)
	}
}

func TestSpeculativeHeatStaysClose(t *testing.T) {
	g := DefaultGrid(16, 8)
	const iters = 200
	want := g.SerialRun(iters)
	results, got := runDistributed(t, g, 4, core.Config{FW: 1, MaxIter: iters}, 1e-3)
	// Temperatures span [0, 100]; diffusion damps speculation error, so the
	// speculative field should track the reference closely.
	if d := MaxDiff(got, want); d > 1.0 {
		t.Errorf("speculative field differs by %.3f degrees", d)
	}
	if core.Aggregate(results).SpecsMade == 0 {
		t.Error("no speculation happened")
	}
}

func TestSpeculativeHeatReachesSteadyState(t *testing.T) {
	g := DefaultGrid(12, 6)
	_, got := runDistributed(t, g, 3, core.Config{FW: 2, MaxIter: 4000}, 1e-3)
	if d := MaxDiff(got, g.SteadyState()); d > 0.6 {
		t.Errorf("speculative run %.3f from steady state", d)
	}
}

func TestMaxDiff(t *testing.T) {
	a := [][]float64{{1, 2}, {3, 4}}
	b := [][]float64{{1, 2}, {3, 7}}
	if got := MaxDiff(a, b); got != 3 {
		t.Errorf("MaxDiff = %g, want 3", got)
	}
	// A NaN anywhere, first or last, is the worst difference there is.
	for _, at := range [][2]int{{0, 0}, {1, 1}} {
		c := [][]float64{{1, 2}, {3, 4}}
		c[at[0]][at[1]] = math.NaN()
		if got := MaxDiff(c, b); !math.IsInf(got, 1) {
			t.Errorf("MaxDiff with a NaN at %v = %g, want +Inf", at, got)
		}
	}
}

func TestSteadyStateProfileIsLinear(t *testing.T) {
	g := DefaultGrid(11, 4)
	s := g.SteadyState()
	for r := 0; r < g.Rows; r++ {
		want := 100 - 10*float64(r)
		if math.Abs(s[r][0]-want) > 1e-9 {
			t.Errorf("row %d: %g, want %g", r, s[r][0], want)
		}
	}
}
