package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"specomp/internal/cluster"
	"specomp/internal/netmodel"
)

func TestDepGraphConstruction(t *testing.T) {
	g, err := NewDepGraph(4, []Edge{{0, 1}, {1, 2}, {2, 3}, {0, 1}, {3, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if g.Nodes() != 4 {
		t.Fatalf("Nodes() = %d, want 4", g.Nodes())
	}
	if want := []int{0, 3}; !reflect.DeepEqual(g.In(1), want) {
		t.Errorf("In(1) = %v, want %v (sorted, duplicate edge collapsed)", g.In(1), want)
	}
	if want := []int{1}; !reflect.DeepEqual(g.Out(0), want) {
		t.Errorf("Out(0) = %v, want %v", g.Out(0), want)
	}
	if !g.HasEdge(2, 3) || g.HasEdge(3, 2) || g.HasEdge(-1, 0) || g.HasEdge(0, 9) {
		t.Error("HasEdge membership/bounds wrong")
	}
	if want := []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 1}}; !reflect.DeepEqual(g.Edges(), want) {
		t.Errorf("Edges() = %v, want %v", g.Edges(), want)
	}

	if _, err := NewDepGraph(2, []Edge{{0, 0}}); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := NewDepGraph(2, []Edge{{0, 2}}); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if _, err := NewDepGraph(0, nil); err == nil {
		t.Error("empty graph accepted")
	}
}

func TestCompleteAndChainGraphs(t *testing.T) {
	c := CompleteGraph(3)
	for j := 0; j < 3; j++ {
		if len(c.In(j)) != 2 || len(c.Out(j)) != 2 {
			t.Fatalf("CompleteGraph node %d: in=%v out=%v", j, c.In(j), c.Out(j))
		}
	}
	ch := ChainGraph(4)
	if !reflect.DeepEqual(ch.Edges(), []Edge{{0, 1}, {1, 2}, {2, 3}}) {
		t.Fatalf("ChainGraph(4).Edges() = %v", ch.Edges())
	}
	if len(ch.In(0)) != 0 || len(ch.Out(3)) != 0 {
		t.Error("chain endpoints should have no in-edge / out-edge")
	}
}

// graphTestApp is a minimal chain-stage app: rank 0 emits a linear ramp,
// every later rank echoes its upstream input plus a constant.
type graphTestApp struct {
	rank int
	out  []float64
	g    *DepGraph
}

func (a *graphTestApp) InitLocal() []float64 { return []float64{0} }

func (a *graphTestApp) Compute(view [][]float64, t int) []float64 {
	if a.rank == 0 {
		a.out[0] = float64(t + 1)
	} else {
		a.out[0] = view[a.rank-1][0] + 1
	}
	return a.out
}

// The source is the slow stage (it paces the pipeline); downstream stages
// are cheap, so they catch up to within one network delay of the source and
// must speculate on its next output to keep busy.
func (a *graphTestApp) ComputeOps() float64 {
	if a.rank == 0 {
		return 50
	}
	return 10
}

func (a *graphTestApp) Check(peer int, predicted, actual, local []float64, t int) CheckResult {
	return RelErrCheck(0, 1, predicted, actual)
}

func (a *graphTestApp) RepairOps(r CheckResult) float64 { return 10 }

func (a *graphTestApp) Graph(p int) *DepGraph { return a.g }

// TestChainGraphRun runs a 3-node chain end to end on the simulated cluster:
// each stage's final value must match the serial reference exactly (FW=1
// with a zero tolerance repairs every imperfect prediction before it is
// broadcast), and the source — which has no in-edges — must never speculate.
func TestChainGraphRun(t *testing.T) {
	const P, iters = 3, 20
	cc := cluster.Config{
		Machines: cluster.UniformMachines(P, 1000),
		Net:      netmodel.Fixed{D: 0.2},
		Seed:     5,
	}
	results, err := RunCluster(cc, Config{FW: 1, MaxIter: iters}, func(p *cluster.Proc) App {
		return &graphTestApp{rank: p.ID(), out: make([]float64, 1), g: ChainGraph(P)}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Serial: stage 0 holds t, stage j holds its upstream's previous value
	// plus one — after enough ticks, stage j's value is iters - j + j = iters
	// only when the chain has fully propagated; compute the reference by
	// lockstep simulation instead of a closed form.
	x := make([]float64, P)
	for tick := 0; tick < iters; tick++ {
		next := make([]float64, P)
		next[0] = float64(tick + 1)
		for j := 1; j < P; j++ {
			next[j] = x[j-1] + 1
		}
		x = next
	}
	for j, r := range results {
		if math.Abs(r.Final[0]-x[j]) > 1e-12 {
			t.Errorf("rank %d final = %v, want serial %v", j, r.Final[0], x[j])
		}
	}
	if results[0].Stats.SpecsMade != 0 {
		t.Errorf("source stage speculated %d times; it has no in-edges", results[0].Stats.SpecsMade)
	}
	if results[1].Stats.SpecsMade == 0 || results[2].Stats.SpecsMade == 0 {
		t.Error("downstream stages never speculated; FW=1 chain should")
	}
}

// TestGraphSizeMismatch: a DepGraph spanning the wrong number of nodes must
// fail loudly at startup, not deadlock mid-run.
func TestGraphSizeMismatch(t *testing.T) {
	cc := cluster.Config{Machines: cluster.UniformMachines(3, 1000), Net: netmodel.Fixed{D: 0.1}}
	_, err := RunCluster(cc, Config{FW: 1, MaxIter: 5}, func(p *cluster.Proc) App {
		return &graphTestApp{rank: p.ID(), out: make([]float64, 1), g: ChainGraph(4)}
	})
	if err == nil {
		t.Fatal("size-mismatched DepGraph accepted")
	}
}

// TestStripGraphMatchesAdjacency checks StripGraph against the predicate the
// strip apps declared their neighbours with before it — peer k's strip
// touches j's when it ends where j's begins or begins where j's ends — in
// both directions (j reads k, and k reads j), for P = 1…8 over even and
// uneven row splits.
func TestStripGraphMatchesAdjacency(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	split := func(p int, even bool) [][2]int {
		blocks := make([][2]int, p)
		lo := 0
		for j := range blocks {
			rows := 4
			if !even {
				rows = 1 + rng.Intn(6)
			}
			blocks[j] = [2]int{lo, lo + rows}
			lo += rows
		}
		return blocks
	}
	for p := 1; p <= 8; p++ {
		for _, even := range []bool{true, false} {
			blocks := split(p, even)
			g := StripGraph(blocks)
			if g.Nodes() != p {
				t.Fatalf("P=%d: graph spans %d nodes", p, g.Nodes())
			}
			for j := 0; j < p; j++ {
				lo, hi := blocks[j][0], blocks[j][1]
				for k := 0; k < p; k++ {
					adjacent := blocks[k][1] == lo || blocks[k][0] == hi
					if g.HasEdge(k, j) != adjacent || g.HasEdge(j, k) != adjacent {
						t.Errorf("P=%d blocks %v: edges %d↔%d = %v/%v, adjacency %v",
							p, blocks, k, j, g.HasEdge(k, j), g.HasEdge(j, k), adjacent)
					}
				}
			}
		}
	}
}
