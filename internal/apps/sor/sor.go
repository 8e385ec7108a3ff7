// Package sor solves the 2-D Laplace/Poisson problem with red-black
// successive over-relaxation on the speculative synchronous iterative
// engine — a fifth member of the paper's algorithm class, and the only one
// with *phase-alternating* iterations: engine iteration 2t updates the red
// cells (row+col even), iteration 2t+1 the black cells. Red cells read only
// black neighbours and vice versa, so the half-sweep exchange keeps the
// distributed update identical to the serial one; over-relaxation (ω up to
// 2) converges far faster than Jacobi.
//
// The grid, the strips and everything of the app but the half-sweep and
// the speculator are the heat app's (heat.Field, heat.Strip): each processor
// owns a strip of rows and publishes only its edge rows (core.Publisher).
package sor

import (
	"math"

	"specomp/internal/apps/heat"
	"specomp/internal/core"
)

// Grid describes the global problem: ∇²u = F with Dirichlet boundary
// values fixed at the initial field's edges. The embedded heat.Field sets
// the size and the fixed Top and Bottom rows; side columns are insulated
// copies of their neighbours' initial values (kept fixed).
type Grid struct {
	heat.Field
	// Omega is the over-relaxation factor in (0, 2).
	Omega float64
}

// DefaultGrid returns a stable configuration with a near-optimal ω for the
// given grid size.
func DefaultGrid(rows, cols int) Grid {
	// Optimal SOR factor for the 5-point Laplacian on an m×n grid.
	m := float64(rows - 1)
	rho := math.Cos(math.Pi / m) // dominant Jacobi eigenvalue (row-dominated)
	omega := 2 / (1 + math.Sqrt(1-rho*rho))
	return Grid{Field: heat.Field{Rows: rows, Cols: cols, Top: 100, Bottom: 0}, Omega: omega}
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

// App adapts one processor's strip to the engine: heat's Strip shell plus
// the red-black update and a colour-aware speculator. Engine iteration t is
// the red half-sweep when t is even, black when odd.
type App struct {
	heat.Strip
	grid Grid
	out  core.ResultBuf // Compute results
}

// NewApp creates the adapter (see heat.NewStrip for blocks). A half-sweep
// costs ~7 flops per relaxed cell, half the strip's cells.
func NewApp(grid Grid, blocks [][2]int, pid int, theta float64) *App {
	return &App{Strip: heat.NewStrip("sor", grid.Field, blocks, pid, theta, 3.5), grid: grid}
}

var _ core.App = (*App)(nil)
var _ core.ComputerInto = (*App)(nil)
var _ core.Publisher = (*App)(nil)
var _ core.Speculator = (*App)(nil)
var _ core.Grapher = (*App)(nil)

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
func (a *App) Compute(view [][]float64, t int) []float64 { return a.out.Compute(a, view, a.Rank(), t) }

// ComputeInto implements core.ComputerInto: one half-sweep over the owned
// rows (red on even t, black on odd t), using the neighbours' published edge
// rows. The owned rows are copied into strip and relaxed there in place — a
// cell's neighbours are all of the other colour, which this half-sweep
// leaves alone. Each row visits only its own colour's columns (stride 2),
// with the insulated side columns peeled off the inner loop; the arithmetic
// is halfSweep's, operand for operand.
func (a *App) ComputeInto(strip []float64, view [][]float64, t int) {
	lo, hi, own, up, down := a.Window(view)
	g := a.grid
	cols, omega := g.Cols, g.Omega
	copy(strip, own)
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
