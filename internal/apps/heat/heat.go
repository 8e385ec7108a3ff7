// Package heat solves the 2-D heat (diffusion) equation with an explicit
// finite-difference stencil on the speculative synchronous iterative
// engine — a third instance of the paper's algorithm class ("solution of
// partial differential equations").
//
// The R×C grid is decomposed into horizontal strips, one per processor.
// Each iteration a processor needs its neighbours' edge rows; under the
// paper's general all-to-all model every processor broadcasts its whole
// strip, and strips that have not arrived are speculated. Diffusion
// smooths the field monotonically, so history-based extrapolation is highly
// accurate — the favourable regime §3.2 describes.
//
// Everything of the app but the stencil update is the strip shell in
// strip.go, which the red-black SOR app (internal/apps/sor) shares.
package heat

import (
	"specomp/internal/core"
	"specomp/internal/cpu"
)

// Grid describes the global problem.
type Grid struct {
	Rows, Cols int
	// Alpha is the diffusion number α = κ·Δt/Δx² (stability needs α ≤ 0.25).
	Alpha float64
	// Top and Bottom are the fixed Dirichlet temperatures of the first and
	// last grid rows; the left/right edges are insulated (Neumann).
	Top, Bottom float64
}

// DefaultGrid returns a stable test configuration.
func DefaultGrid(rows, cols int) Grid {
	return Grid{Rows: rows, Cols: cols, Alpha: 0.2, Top: 100, Bottom: 0}
}

// field is the grid without its diffusion number.
func (g Grid) field() Field { return Field{Rows: g.Rows, Cols: g.Cols, Top: g.Top, Bottom: g.Bottom} }

// Initial returns the grid's initial field (Field.Initial).
func (g Grid) Initial() [][]float64 { return g.field().Initial() }

// SteadyState returns the grid's analytic steady solution
// (Field.SteadyState).
func (g Grid) SteadyState() [][]float64 { return g.field().SteadyState() }

// SerialStep advances the whole field one explicit step (reference
// implementation).
func (g Grid) SerialStep(f [][]float64) [][]float64 {
	out := make([][]float64, g.Rows)
	for r := range out {
		out[r] = make([]float64, g.Cols)
		if r == 0 || r == g.Rows-1 {
			copy(out[r], f[r])
			continue
		}
		for c := 0; c < g.Cols; c++ {
			left, right := c, c
			if c > 0 {
				left = c - 1
			}
			if c < g.Cols-1 {
				right = c + 1
			}
			x := f[r][c]
			out[r][c] = x + g.Alpha*(f[r-1][c]+f[r+1][c]+f[r][left]+f[r][right]-4*x)
		}
	}
	return out
}

// SerialRun advances iters steps from the initial field.
func (g Grid) SerialRun(iters int) [][]float64 {
	f := g.Initial()
	for t := 0; t < iters; t++ {
		f = g.SerialStep(f)
	}
	return f
}

// App adapts one processor's strip of rows to the engine: the Strip shell
// plus the explicit stencil update.
type App struct {
	Strip
	grid Grid
	out  core.ResultBuf // Compute results
}

// NewApp creates the adapter for processor pid (see NewStrip for blocks).
// The update costs ~6 flops per owned cell.
func NewApp(grid Grid, blocks [][2]int, pid int, theta float64) *App {
	return &App{Strip: NewStrip("heat", grid.field(), blocks, pid, theta, 6), grid: grid}
}

var _ core.App = (*App)(nil)
var _ core.ComputerInto = (*App)(nil)
var _ core.Publisher = (*App)(nil)
var _ core.Grapher = (*App)(nil)

// Compute implements core.App: ComputeInto into the next result buffer.
func (a *App) Compute(view [][]float64, t int) []float64 { return a.out.Compute(a, view, a.pid, t) }

// ComputeInto implements core.ComputerInto: stencil update of the owned
// rows, the neighbours' published edge rows as ghosts, one stencilRow per
// interior row; the arithmetic is SerialStep's, operand for operand.
func (a *App) ComputeInto(out []float64, view [][]float64, t int) {
	lo, hi := a.rows()
	g := a.grid
	cols, alpha := g.Cols, g.Alpha
	strip := view[a.pid]
	var up, down []float64
	if lo > 0 {
		up = a.ghostRow(view, lo-1, true) // the strip above contributes its LAST row
	}
	if hi < g.Rows {
		down = a.ghostRow(view, hi, false) // the strip below contributes its FIRST row
	}
	for r := lo; r < hi; r++ {
		i := (r - lo) * cols
		cur, dst := strip[i:i+cols], out[i:i+cols]
		if r == 0 || r == g.Rows-1 {
			copy(dst, cur)
			continue
		}
		above, below := up, down
		if r > lo {
			above = strip[i-cols : i]
		}
		if r+1 < hi {
			below = strip[i+cols : i+2*cols]
		}
		stencilRow(dst, above, cur, below, alpha)
	}
}

// vector reports whether stencilRow hands the interior of each row to the
// four-wide kernel (stencil_amd64.s). It is fixed at package init from the
// CPU's features; tests turn it off to check the portable loop alone.
var vector = cpu.HasAVX2()

// stencilRow writes one interior row's update into dst. The side columns are
// peeled off the inner loop (insulated edges read the cell itself). The
// vector kernel takes whole blocks of four interior cells and interiorGo the
// 0–3 left over, or the whole interior when vector is off; both evaluate
// SerialStep's expression operand for operand,
// x + α·((((above+below)+left)+right) − 4x), with no fused multiply-add, so
// each cell is the same sequence of IEEE-754 operations on either loop.
func stencilRow(dst, above, cur, below []float64, alpha float64) {
	above, below, dst = above[:len(cur)], below[:len(cur)], dst[:len(cur)]
	last := len(cur) - 1
	x := cur[0]
	dst[0] = x + alpha*(above[0]+below[0]+x+cur[min(1, last)]-4*x)
	if last == 0 {
		return
	}
	x = cur[last]
	dst[last] = x + alpha*(above[last]+below[last]+cur[last-1]+x-4*x)
	n := 0
	if vector {
		n = rowAVX2(dst, above, cur, below, alpha)
	}
	interiorGo(dst[n:], above[n:], cur[n:], below[n:], alpha)
}

// interiorGo writes the cells [1, len(cur)−1) of a row window. Every row is
// re-sliced to cur's length so the loop carries no bounds check.
func interiorGo(dst, above, cur, below []float64, alpha float64) {
	above, below, dst = above[:len(cur)], below[:len(cur)], dst[:len(cur)]
	for c := 1; c < len(cur)-1; c++ {
		x := cur[c]
		dst[c] = x + alpha*(above[c]+below[c]+cur[c-1]+cur[c+1]-4*x)
	}
}
