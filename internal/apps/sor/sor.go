// Package sor solves the 2-D Laplace/Poisson problem with red-black
// successive over-relaxation on the speculative synchronous iterative
// engine — a fifth member of the paper's algorithm class, and the only one
// with *phase-alternating* iterations: engine iteration 2t updates the red
// cells (row+col even), iteration 2t+1 the black cells. Red cells read only
// black neighbours and vice versa, so the half-sweep exchange keeps the
// distributed update identical to the serial one; over-relaxation (ω up to
// 2) converges far faster than Jacobi.
//
// As in the heat app, each processor owns a strip of rows and publishes
// only its edge rows (core.Publisher).
package sor

import (
	"fmt"
	"math"

	"specomp/internal/core"
)

// Grid describes the global problem: ∇²u = F with Dirichlet boundary
// values fixed at the initial field's edges.
type Grid struct {
	Rows, Cols int
	// Omega is the over-relaxation factor in (0, 2).
	Omega float64
	// Top and Bottom set the fixed boundary rows; side columns are
	// insulated copies of their neighbours' initial values (kept fixed).
	Top, Bottom float64
}

// DefaultGrid returns a stable configuration with a near-optimal ω for the
// given grid size.
func DefaultGrid(rows, cols int) Grid {
	// Optimal SOR factor for the 5-point Laplacian on an m×n grid.
	m := float64(rows - 1)
	rho := math.Cos(math.Pi / m) // dominant Jacobi eigenvalue (row-dominated)
	omega := 2 / (1 + math.Sqrt(1-rho*rho))
	return Grid{Rows: rows, Cols: cols, Omega: omega, Top: 100, Bottom: 0}
}

// initialValue is the starting value of every cell of row r: the Dirichlet
// value on a boundary row, the mean in the interior.
func (g Grid) initialValue(r int) float64 {
	switch r {
	case 0:
		return g.Top
	case g.Rows - 1:
		return g.Bottom
	}
	return (g.Top + g.Bottom) / 2
}

// Initial returns the starting field: boundary rows at their Dirichlet
// values, interior at the mean.
func (g Grid) Initial() [][]float64 {
	f := make([][]float64, g.Rows)
	for r := range f {
		f[r] = make([]float64, g.Cols)
		fill(f[r], g.initialValue(r))
	}
	return f
}

func fill(row []float64, v float64) {
	for c := range row {
		row[c] = v
	}
}

// red reports whether cell (r, c) belongs to the red half-sweep.
func red(r, c int) bool { return (r+c)%2 == 0 }

// halfSweep relaxes the cells of one colour in place.
func (g Grid) halfSweep(f [][]float64, wantRed bool) {
	for r := 1; r < g.Rows-1; r++ {
		for c := 0; c < g.Cols; c++ {
			if red(r, c) != wantRed {
				continue
			}
			left, right := c, c
			if c > 0 {
				left = c - 1
			}
			if c < g.Cols-1 {
				right = c + 1
			}
			gs := (f[r-1][c] + f[r+1][c] + f[r][left] + f[r][right]) / 4
			f[r][c] += g.Omega * (gs - f[r][c])
		}
	}
}

// SerialSweep performs one full red-black SOR sweep in place.
func (g Grid) SerialSweep(f [][]float64) {
	g.halfSweep(f, true)
	g.halfSweep(f, false)
}

// SerialRun runs sweeps full sweeps from the initial field.
func (g Grid) SerialRun(sweeps int) [][]float64 {
	f := g.Initial()
	for s := 0; s < sweeps; s++ {
		g.SerialSweep(f)
	}
	return f
}

// SteadyState is the analytic solution for the Laplace problem with the
// fixed top/bottom rows: a linear profile.
func (g Grid) SteadyState() [][]float64 {
	f := make([][]float64, g.Rows)
	for r := range f {
		f[r] = make([]float64, g.Cols)
		v := g.Top + (g.Bottom-g.Top)*float64(r)/float64(g.Rows-1)
		for c := range f[r] {
			f[r][c] = v
		}
	}
	return f
}

// MaxDiff returns the largest absolute difference between two fields.
func MaxDiff(a, b [][]float64) float64 {
	worst := 0.0
	for r := range a {
		for c := range a[r] {
			if d := math.Abs(a[r][c] - b[r][c]); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// App adapts one processor's strip to the engine. Engine iteration t is the
// red half-sweep when t is even, black when odd.
type App struct {
	grid   Grid
	pid    int
	blocks [][2]int
	// Theta is the relative-error speculation threshold.
	Theta float64

	out, pub core.ResultBuf // Compute and Publish results
}

// NewApp creates the adapter; every processor must own at least one row.
func NewApp(grid Grid, blocks [][2]int, pid int, theta float64) *App {
	for i, b := range blocks {
		if b[1] <= b[0] {
			panic(fmt.Sprintf("sor: processor %d owns no rows", i))
		}
	}
	return &App{grid: grid, pid: pid, blocks: blocks, Theta: theta}
}

var _ core.App = (*App)(nil)
var _ core.ComputerInto = (*App)(nil)
var _ core.Publisher = (*App)(nil)
var _ core.Speculator = (*App)(nil)
var _ core.Grapher = (*App)(nil)

// Graph implements core.Grapher: only touching strips feed the stencil, in
// both directions.
func (a *App) Graph(p int) *core.DepGraph { return core.StripGraph(a.blocks) }

func (a *App) rows() (lo, hi int) { return a.blocks[a.pid][0], a.blocks[a.pid][1] }

// InitLocal implements core.App: the owned rows of Grid.Initial.
func (a *App) InitLocal() []float64 {
	lo, hi := a.rows()
	c := a.grid.Cols
	out := make([]float64, (hi-lo)*c)
	for r := lo; r < hi; r++ {
		fill(out[(r-lo)*c:(r-lo+1)*c], a.grid.initialValue(r))
	}
	return out
}

// Publish implements core.Publisher: first and last strip rows.
func (a *App) Publish(local []float64) []float64 {
	c := a.grid.Cols
	out := a.pub.Next(2 * c)
	copy(out, local[:c])
	copy(out[c:], local[len(local)-c:])
	return out
}

func (a *App) owner(r int) int {
	for k, b := range a.blocks {
		if r >= b[0] && r < b[1] {
			return k
		}
	}
	panic(fmt.Sprintf("sor: row %d owned by nobody", r))
}

// SpeculateInto implements core.Speculator with a colour-aware rule: a cell
// only changes during half-sweeps of its own colour, so the cells NOT
// updated in the half-sweep being predicted are copied exactly from the
// newest snapshot, and the updated colour's cells extrapolate along their
// last per-update change (hist[0] − hist[2], two half-sweeps apart).
// Generic predictors fail here — consecutive snapshots alternate which
// half of the cells moved — which is exactly why the engine lets the
// application own its speculation function.
func (a *App) SpeculateInto(dst []float64, peer int, hist [][]float64, steps int) float64 {
	copy(dst, hist[0])
	if len(hist) < 3 {
		return float64(len(dst)) // zero-order fallback
	}
	// One step ahead, the colour due to update is the one that moved
	// between hist[2] and hist[1] (same parity, two half-sweeps earlier);
	// hist[1]−hist[2] is zero for the other colour, so adding it applies
	// the per-update trend to exactly the right cells. Each further pair of
	// steps is a full sweep, captured by hist[0]−hist[2].
	full := float64(steps / 2)
	rem := float64(steps % 2)
	for i := range dst {
		dst[i] += full*(hist[0][i]-hist[2][i]) + rem*(hist[1][i]-hist[2][i])
	}
	return 4 * float64(len(dst))
}

// Compute implements core.App: ComputeInto into the next result buffer.
func (a *App) Compute(view [][]float64, t int) []float64 { return a.out.Compute(a, view, a.pid, t) }

// ComputeInto implements core.ComputerInto: one half-sweep over the owned
// rows (red on even t, black on odd t), using the neighbours' published edge
// rows. The owned rows are copied into strip and relaxed there in place — a
// cell's neighbours are all of the other colour, which this half-sweep
// leaves alone. Each row visits only its own colour's columns (stride 2),
// with the insulated side columns peeled off the inner loop; the arithmetic
// is halfSweep's, operand for operand.
func (a *App) ComputeInto(strip []float64, view [][]float64, t int) {
	lo, hi := a.rows()
	g := a.grid
	cols, omega := g.Cols, g.Omega
	copy(strip, view[a.pid])
	var up, down []float64
	if lo > 0 {
		payload := view[a.owner(lo-1)]
		up = payload[cols : 2*cols] // strip above contributes its LAST row
	}
	if hi < g.Rows {
		payload := view[a.owner(hi)]
		down = payload[:cols] // strip below contributes its FIRST row
	}
	for r := max(lo, 1); r < min(hi, g.Rows-1); r++ { // Dirichlet rows stay fixed
		i := (r - lo) * cols
		cur := strip[i : i+cols]
		above, below := up, down
		if r > lo {
			above = strip[i-cols : i]
		}
		if r+1 < hi {
			below = strip[i+cols : i+2*cols]
		}
		above, below = above[:len(cur)], below[:len(cur)]
		last := len(cur) - 1
		c := (r + t) & 1 // first column of this half-sweep's colour: (r+c)%2 == t%2
		if c == 0 {
			gs := (above[0] + below[0] + cur[0] + cur[min(1, last)]) / 4
			cur[0] += omega * (gs - cur[0])
			c = 2
		}
		for ; c < len(cur)-1; c += 2 {
			gs := (above[c] + below[c] + cur[c-1] + cur[c+1]) / 4
			cur[c] += omega * (gs - cur[c])
		}
		if c == last {
			gs := (above[c] + below[c] + cur[c-1] + cur[c]) / 4
			cur[c] += omega * (gs - cur[c])
		}
	}
}

// ComputeOps implements core.App: ~7 flops per relaxed cell (half the strip).
func (a *App) ComputeOps() float64 {
	lo, hi := a.rows()
	return 7 * float64(hi-lo) * float64(a.grid.Cols) / 2
}

// Check implements core.App on the published edge rows.
func (a *App) Check(peer int, pred, act, local []float64, t int) core.CheckResult {
	return core.RelErrCheck(a.Theta, 2, pred, act)
}

// RepairOps implements core.App.
func (a *App) RepairOps(r core.CheckResult) float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Bad) / float64(r.Total) * a.ComputeOps()
}
