// Package jacobi runs Jacobi iteration for diagonally dominant linear
// systems on the speculative synchronous iterative engine — a second
// instance of the paper's algorithm class ("iterative techniques to solve
// linear and non-linear equations").
//
// Each processor owns a block of rows of A and the corresponding block of
// the iterate x. Every iteration it broadcasts its block of x, obtains (or
// speculates) the other blocks, and updates
//
//	x_i(t+1) = (b_i − Σ_{j≠i} a_ij·x_j(t)) / a_ii.
//
// Jacobi on a strictly diagonally dominant system is a contraction, so
// bounded speculation errors still converge — the property that makes
// speculative computation safe here.
package jacobi

import (
	"math"
	"math/rand"

	"specomp/internal/core"
)

// Problem is a dense linear system Ax = b with a known solution (for
// testing and residual reporting).
type Problem struct {
	N        int
	A        [][]float64
	B        []float64
	Solution []float64
}

// NewDiagonallyDominant generates a random strictly diagonally dominant
// n×n system with a known random solution.
func NewDiagonallyDominant(n int, seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	a := make([][]float64, n)
	sol := make([]float64, n)
	for i := range sol {
		sol[i] = 2*rng.Float64() - 1
	}
	for i := range a {
		a[i] = make([]float64, n)
		var off float64
		for j := range a[i] {
			if j == i {
				continue
			}
			a[i][j] = (2*rng.Float64() - 1) / float64(n)
			off += math.Abs(a[i][j])
		}
		// Strict dominance with margin, keeping the spectral radius of the
		// Jacobi iteration matrix comfortably below 1.
		a[i][i] = off*1.5 + 1
	}
	b := make([]float64, n)
	for i := range a {
		var s float64
		for j := range a[i] {
			s += a[i][j] * sol[j]
		}
		b[i] = s
	}
	return &Problem{N: n, A: a, B: b, Solution: sol}
}

// SerialStep performs one Jacobi sweep on x, returning the new iterate.
func (p *Problem) SerialStep(x []float64) []float64 {
	out := make([]float64, p.N)
	for i := 0; i < p.N; i++ {
		s := p.B[i]
		row := p.A[i]
		for j, v := range row {
			if j != i {
				s -= v * x[j]
			}
		}
		out[i] = s / row[i]
	}
	return out
}

// SerialSolve iterates from the zero vector for iters sweeps.
func (p *Problem) SerialSolve(iters int) []float64 {
	x := make([]float64, p.N)
	for t := 0; t < iters; t++ {
		x = p.SerialStep(x)
	}
	return x
}

// Residual returns ‖Ax − b‖₂.
func (p *Problem) Residual(x []float64) float64 {
	var sum float64
	for i := range p.A {
		var s float64
		for j, v := range p.A[i] {
			s += v * x[j]
		}
		d := s - p.B[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// ErrorNorm returns ‖x − x*‖₂ against the known solution.
func (p *Problem) ErrorNorm(x []float64) float64 {
	var sum float64
	for i, v := range x {
		d := v - p.Solution[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// App adapts one processor's row block to the engine.
type App struct {
	prob   *Problem
	pid    int
	lo, hi int // owned row range [lo, hi)
	blocks [][2]int
	// Theta is the relative-error speculation threshold.
	Theta float64
	// Tol, when positive, stops the run once the iterate's max-norm change
	// between consecutive validated iterations falls below it (a core.Stopper).
	Tol float64

	x   []float64      // Compute's reassembled global iterate
	out core.ResultBuf // Compute results
	// prevIterate and spare are Done's previous and recycled global iterates.
	prevIterate, spare []float64
}

// NewApp creates the adapter for processor pid owning rows [lo, hi).
// blocks lists every processor's (lo, hi) so the view can be unflattened.
func NewApp(prob *Problem, blocks [][2]int, pid int, theta float64) *App {
	return &App{
		prob: prob, pid: pid,
		lo: blocks[pid][0], hi: blocks[pid][1],
		blocks: blocks, Theta: theta,
	}
}

var _ core.App = (*App)(nil)
var _ core.ComputerInto = (*App)(nil)

// InitLocal implements core.App: the zero initial iterate.
func (a *App) InitLocal() []float64 { return make([]float64, a.hi-a.lo) }

// global reassembles the full iterate from the per-processor view into x
// (allocated on first use); blocks the view leaves empty read as zero.
func (a *App) global(x []float64, view [][]float64) []float64 {
	if len(x) != a.prob.N {
		x = make([]float64, a.prob.N)
	}
	for k, blk := range view {
		dst := x[a.blocks[k][0]:a.blocks[k][1]]
		if len(blk) == 0 {
			clear(dst)
			continue
		}
		copy(dst, blk)
	}
	return x
}

// Compute implements core.App: ComputeInto into the next result buffer.
func (a *App) Compute(view [][]float64, t int) []float64 { return a.out.Compute(a, view, a.pid, t) }

// ComputeInto implements core.ComputerInto: one Jacobi sweep over the owned
// rows. The off-diagonal sum runs in column order, split around the diagonal
// so the inner loops carry neither a branch nor a bounds check.
func (a *App) ComputeInto(out []float64, view [][]float64, t int) {
	a.x = a.global(a.x, view)
	for i := a.lo; i < a.hi; i++ {
		s := a.prob.B[i]
		row := a.prob.A[i]
		head, tail := row[:i], row[i+1:]
		xh, xt := a.x[:len(head)], a.x[i+1:][:len(tail)]
		for j, v := range head {
			s -= v * xh[j]
		}
		for j, v := range tail {
			s -= v * xt[j]
		}
		out[i-a.lo] = s / row[i]
	}
}

// ComputeOps implements core.App: 2 flops per matrix element visited.
func (a *App) ComputeOps() float64 {
	return 2 * float64(a.hi-a.lo) * float64(a.prob.N)
}

// Check implements core.App via element-wise relative error.
func (a *App) Check(peer int, pred, act, local []float64, t int) core.CheckResult {
	return core.RelErrCheck(a.Theta, 2, pred, act)
}

// RepairOps implements core.App: recomputing the rows affected by bad
// elements costs, per the paper's model, the bad fraction of a full sweep.
func (a *App) RepairOps(r core.CheckResult) float64 {
	if r.Total == 0 {
		return 0
	}
	frac := float64(r.Bad) / float64(r.Total)
	return frac * a.ComputeOps()
}

// Done implements core.Stopper: convergence is declared when the exchanged
// iterate changes by less than Tol in max-norm between consecutive
// validated iterations. Every processor sees the same exchanged snapshots,
// so the decision is globally consistent.
func (a *App) Done(actualView [][]float64, t int) bool {
	if a.Tol <= 0 {
		return false
	}
	x, prev := a.global(a.spare, actualView), a.prevIterate
	a.prevIterate, a.spare = x, prev
	if prev == nil {
		return false
	}
	for i, v := range x {
		d := v - prev[i]
		if d > a.Tol || d < -a.Tol {
			return false
		}
	}
	return true
}

// DoneOps implements core.Stopper: one subtract-and-compare per variable.
func (a *App) DoneOps() float64 {
	if a.Tol <= 0 {
		return 0
	}
	return 2 * float64(a.prob.N)
}
