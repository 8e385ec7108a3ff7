// Package pagerank runs PageRank power iteration on the speculative
// synchronous iterative engine — a fourth member of the paper's algorithm
// class, with graph-structured (rather than all-pairs or stencil) coupling.
//
// Each processor owns a block of vertices and their rank entries. Every
// iteration all rank blocks are exchanged (the paper's general model);
// blocks still in flight are speculated from their history.
//
// An honest finding of this port: per-vertex rank trajectories under power
// iteration are NOT extrapolatable. Each element mixes many spectral modes
// of comparable magnitude, so linear extrapolation errs by ~1.5× the
// per-sweep change (measured; worse than simply reusing the old value).
// The paper's §3.2 precondition — "variables follow a relatively slow
// changing trend that can be detected" — fails here. The speculation mode
// that DOES pay is zero-order prediction with a progress-relative threshold
// θ slightly above 1: "accept the speculation iff it is no worse than using
// last sweep's value", i.e. staleness bounded to one iteration's change.
// That masks communication like asynchronous iteration but, unlike the
// asynchronous baseline, keeps a per-message error guarantee and sound
// convergence detection.
package pagerank

import (
	"math"
	"math/rand"

	"specomp/internal/core"
)

// Graph is a directed graph in adjacency-list form.
type Graph struct {
	N   int
	Out [][]int // Out[v] lists the targets of v's out-edges
}

// NewRandomGraph builds a random directed graph with roughly avgDeg
// out-edges per vertex plus a deterministic ring to keep it connected and a
// self-loop on every vertex. The self-loops make the damped walk "lazy",
// shifting its spectrum to be (near-)nonnegative: per-vertex rank
// trajectories then decay monotonically instead of spiralling, which is
// what makes their history extrapolatable — the §3.2 "slow changing trend"
// property. (A graph without self-loops has oscillatory modes whose
// per-element changes alternate sign and defeat any history-based
// speculation; see the package tests.)
func NewRandomGraph(n, avgDeg int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := &Graph{N: n, Out: make([][]int, n)}
	for v := 0; v < n; v++ {
		g.Out[v] = append(g.Out[v], v)       // lazy self-loop
		g.Out[v] = append(g.Out[v], (v+1)%n) // ring edge
		for e := 1; e < avgDeg; e++ {
			w := rng.Intn(n)
			if w != v {
				g.Out[v] = append(g.Out[v], w)
			}
		}
	}
	return g
}

// Dangle adds nDangling rank sinks (vertices with no out-edges) by clearing
// the out-lists of the last vertices — for testing dangling-mass handling.
func (g *Graph) Dangle(nDangling int) {
	for v := g.N - nDangling; v < g.N; v++ {
		if v >= 0 {
			g.Out[v] = nil
		}
	}
}

// Problem precomputes the transpose structure needed by the pull-style
// update, shared read-only by all processors.
type Problem struct {
	G       *Graph
	Damping float64
	// In[v] lists (source, 1/outdeg(source)) contributions into v.
	in     [][]inEdge
	isSink []bool
}

type inEdge struct {
	src int
	w   float64
}

// NewProblem prepares a PageRank instance with the given damping factor.
func NewProblem(g *Graph, damping float64) *Problem {
	p := &Problem{G: g, Damping: damping,
		in: make([][]inEdge, g.N), isSink: make([]bool, g.N)}
	for v := 0; v < g.N; v++ {
		if len(g.Out[v]) == 0 {
			p.isSink[v] = true
			continue
		}
		w := 1.0 / float64(len(g.Out[v]))
		for _, u := range g.Out[v] {
			p.in[u] = append(p.in[u], inEdge{src: v, w: w})
		}
	}
	return p
}

// Step performs one synchronous power-iteration sweep over all vertices.
// Dangling mass is redistributed uniformly.
func (p *Problem) Step(rank []float64) []float64 {
	n := p.G.N
	out := make([]float64, n)
	var dangling float64
	for v := 0; v < n; v++ {
		if p.isSink[v] {
			dangling += rank[v]
		}
	}
	base := (1-p.Damping)/float64(n) + p.Damping*dangling/float64(n)
	for v := 0; v < n; v++ {
		s := 0.0
		for _, e := range p.in[v] {
			s += e.w * rank[e.src]
		}
		out[v] = base + p.Damping*s
	}
	return out
}

// SerialSolve iterates from the uniform vector.
func (p *Problem) SerialSolve(iters int) []float64 {
	r := uniform(p.G.N)
	for t := 0; t < iters; t++ {
		r = p.Step(r)
	}
	return r
}

func uniform(n int) []float64 {
	r := make([]float64, n)
	for i := range r {
		r[i] = 1 / float64(n)
	}
	return r
}

// Sum returns Σ r_i (should remain 1 under the dangling-mass treatment).
func Sum(r []float64) float64 {
	var s float64
	for _, v := range r {
		s += v
	}
	return s
}

// L1Diff returns Σ |a_i − b_i|.
func L1Diff(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

// App adapts one processor's vertex block to the engine.
type App struct {
	prob   *Problem
	pid    int
	blocks [][2]int
	// Theta is the relative-error speculation threshold.
	Theta float64
	// Tol, when positive, stops once the exchanged rank vector's L1 change
	// falls below it (core.Stopper).
	Tol float64
	// SpecAlpha damps the speculation's trend term: 0 (default) is
	// zero-order hold — the right choice for power iteration, whose
	// per-element trends are not extrapolatable (see the package comment) —
	// and 1 is full linear extrapolation.
	SpecAlpha float64

	rank []float64      // Compute's reassembled global rank vector
	out  core.ResultBuf // Compute results
	// prev and spare are Done's previous and recycled global rank vectors.
	prev, spare []float64
	// lastAct[k] caches peer k's previous actual block, the reference for
	// the progress-relative check.
	lastAct [][]float64
	// needed[v] marks global vertices whose rank the local update reads
	// (sources of in-edges into the owned block, plus all sinks for the
	// dangling-mass term). Speculation and checking are restricted — and
	// cost-charged — per peer according to this dependency structure, the
	// receiver-side analogue of core.Publisher.
	needed []bool
	// relevant[k] counts needed vertices inside peer k's block.
	relevant []int
}

// NewApp creates the adapter for processor pid owning vertex range
// blocks[pid].
func NewApp(prob *Problem, blocks [][2]int, pid int, theta float64) *App {
	a := &App{prob: prob, pid: pid, blocks: blocks, Theta: theta}
	a.needed = make([]bool, prob.G.N)
	for v := a.lo(); v < a.hi(); v++ {
		for _, e := range prob.in[v] {
			a.needed[e.src] = true
		}
	}
	for v, sink := range prob.isSink {
		if sink {
			a.needed[v] = true
		}
	}
	a.relevant = make([]int, len(blocks))
	for k, b := range blocks {
		for v := b[0]; v < b[1]; v++ {
			if a.needed[v] {
				a.relevant[k]++
			}
		}
	}
	a.lastAct = make([][]float64, len(blocks))
	return a
}

var _ core.App = (*App)(nil)
var _ core.ComputerInto = (*App)(nil)
var _ core.Stopper = (*App)(nil)
var _ core.Speculator = (*App)(nil)

func (a *App) lo() int { return a.blocks[a.pid][0] }
func (a *App) hi() int { return a.blocks[a.pid][1] }

// InitLocal implements core.App: the uniform distribution block.
func (a *App) InitLocal() []float64 {
	n := a.prob.G.N
	out := make([]float64, a.hi()-a.lo())
	for i := range out {
		out[i] = 1 / float64(n)
	}
	return out
}

// global reassembles the full rank vector from the per-processor view into
// r (allocated on first use); blocks the view leaves empty read as zero.
func (a *App) global(r []float64, view [][]float64) []float64 {
	if len(r) != a.prob.G.N {
		r = make([]float64, a.prob.G.N)
	}
	for k, blk := range view {
		dst := r[a.blocks[k][0]:a.blocks[k][1]]
		if len(blk) == 0 {
			clear(dst)
			continue
		}
		copy(dst, blk)
	}
	return r
}

// Compute implements core.App: ComputeInto into the next result buffer.
func (a *App) Compute(view [][]float64, t int) []float64 { return a.out.Compute(a, view, a.pid, t) }

// ComputeInto implements core.ComputerInto: the owned vertices' pull update.
func (a *App) ComputeInto(out []float64, view [][]float64, t int) {
	a.rank = a.global(a.rank, view)
	rank := a.rank
	n := a.prob.G.N
	var dangling float64
	for v := 0; v < n; v++ {
		if a.prob.isSink[v] {
			dangling += rank[v]
		}
	}
	base := (1-a.prob.Damping)/float64(n) + a.prob.Damping*dangling/float64(n)
	for v := a.lo(); v < a.hi(); v++ {
		s := 0.0
		for _, e := range a.prob.in[v] {
			s += e.w * rank[e.src]
		}
		out[v-a.lo()] = base + a.prob.Damping*s
	}
}

// ComputeOps implements core.App: ~2 flops per in-edge of the owned block
// plus the dangling scan.
func (a *App) ComputeOps() float64 {
	edges := 0
	for v := a.lo(); v < a.hi(); v++ {
		edges += len(a.prob.in[v])
	}
	return float64(2*edges) + float64(a.prob.G.N)
}

// SpeculateInto implements core.Speculator: damped extrapolation of the
// peer's block (zero-order by default; see SpecAlpha), cost-charged only for
// the entries the local update actually reads.
func (a *App) SpeculateInto(dst []float64, peer int, hist [][]float64, steps int) float64 {
	copy(dst, hist[0])
	if a.SpecAlpha > 0 && len(hist) > 1 {
		s := float64(steps) * a.SpecAlpha
		for i := range dst {
			dst[i] += s * (hist[0][i] - hist[1][i])
		}
	}
	return 3 * float64(a.relevant[peer])
}

// Check implements core.App with a *progress-relative* error metric: a
// prediction is acceptable when its error is small compared to how much the
// value actually moved this sweep, |pred−act| ≤ θ·|act−lastAct|. For a
// geometrically converging iteration a fixed absolute threshold cannot
// work — early sweeps would always fail it, late sweeps would hide errors
// above the convergence tolerance — whereas the injected error under this
// metric decays with the iteration's own progress, so convergence
// detection remains sound. Only entries feeding the local update are
// compared and charged.
func (a *App) Check(peer int, pred, act, local []float64, t int) core.CheckResult {
	lo := a.blocks[peer][0]
	last := a.lastAct[peer]
	bad, total := 0, 0
	for i := range act {
		if !a.needed[lo+i] {
			continue
		}
		total++
		err := math.Abs(pred[i] - act[i])
		if last == nil {
			// No reference progress yet: accept only near-exact predictions.
			if !(err <= 1e-15) {
				bad++
			}
			continue
		}
		// Clamped: an infinite error fails even against an infinite actual.
		if !(err <= min(a.Theta*math.Abs(act[i]-last[i]), math.MaxFloat64)+1e-15) {
			bad++
		}
	}
	a.lastAct[peer] = append(last[:0], act...)
	return core.CheckResult{Bad: bad, Total: total, Ops: 3 * float64(total)}
}

// RepairOps implements core.App: the bad fraction of a sweep.
func (a *App) RepairOps(r core.CheckResult) float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Bad) / float64(r.Total) * a.ComputeOps()
}

// Done implements core.Stopper on the exchanged rank vector's L1 change.
func (a *App) Done(actualView [][]float64, t int) bool {
	if a.Tol <= 0 {
		return false
	}
	r, prev := a.global(a.spare, actualView), a.prev
	a.prev, a.spare = r, prev
	if prev == nil {
		return false
	}
	return L1Diff(r, prev) < a.Tol
}

// DoneOps implements core.Stopper.
func (a *App) DoneOps() float64 {
	if a.Tol <= 0 {
		return 0
	}
	return 2 * float64(a.prob.G.N)
}

// BlocksFromCounts converts per-processor vertex counts to ranges.
func BlocksFromCounts(counts []int) [][2]int {
	out := make([][2]int, len(counts))
	lo := 0
	for i, c := range counts {
		out[i] = [2]int{lo, lo + c}
		lo += c
	}
	return out
}
