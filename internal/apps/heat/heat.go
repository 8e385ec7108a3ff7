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
package heat

import (
	"fmt"
	"math"

	"specomp/internal/core"
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

// initialValue is the initial temperature of every cell of row r: the
// Dirichlet value on a boundary row, the mean in the interior.
func (g Grid) initialValue(r int) float64 {
	switch r {
	case 0:
		return g.Top
	case g.Rows - 1:
		return g.Bottom
	}
	return (g.Top + g.Bottom) / 2
}

// Initial returns the initial field: boundary rows at their Dirichlet
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

// SteadyState returns the analytic steady solution: a linear profile from
// Top to Bottom, uniform across columns.
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

// MaxDiff returns the largest absolute difference between two fields; +Inf
// if any difference is NaN.
func MaxDiff(a, b [][]float64) float64 {
	worst := 0.0
	for r := range a {
		for c := range a[r] {
			worst = max(worst, math.Abs(a[r][c]-b[r][c])) // max keeps a NaN
		}
	}
	if math.IsNaN(worst) {
		return math.Inf(1)
	}
	return worst
}

// App adapts one processor's strip of rows to the engine. Strips are
// flattened row-major into the wire format. The app implements
// core.Publisher: only the strip's first and last rows travel on the
// network — the ghost rows neighbours actually need — so message sizes and
// speculation/checking overhead are proportional to the interface, not the
// volume.
type App struct {
	grid   Grid
	pid    int
	blocks [][2]int // per-processor global row ranges [lo, hi)
	// Theta is the relative-error speculation threshold.
	Theta float64

	out, pub core.ResultBuf // Compute and Publish results
}

// NewApp creates the adapter for processor pid. blocks lists every
// processor's row range; they must tile [0, Rows) and every processor must
// own at least one row.
func NewApp(grid Grid, blocks [][2]int, pid int, theta float64) *App {
	for i, b := range blocks {
		if b[1] <= b[0] {
			panic(fmt.Sprintf("heat: processor %d owns no rows", i))
		}
	}
	return &App{grid: grid, pid: pid, blocks: blocks, Theta: theta}
}

var _ core.App = (*App)(nil)
var _ core.ComputerInto = (*App)(nil)
var _ core.Publisher = (*App)(nil)
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

// Publish implements core.Publisher: the strip's first and last rows,
// concatenated — everything any neighbour's stencil can touch.
func (a *App) Publish(local []float64) []float64 {
	c := a.grid.Cols
	out := a.pub.Next(2 * c)
	copy(out, local[:c])
	copy(out[c:], local[len(local)-c:])
	return out
}

// owner returns the processor owning global row r.
func (a *App) owner(r int) int {
	for k, b := range a.blocks {
		if r >= b[0] && r < b[1] {
			return k
		}
	}
	panic(fmt.Sprintf("heat: row %d owned by nobody", r))
}

// ghostRow extracts the published row adjacent to the local strip from peer
// k's published payload (first row at offset 0, last row at offset Cols).
func (a *App) ghostRow(view [][]float64, r int, wantLast bool) []float64 {
	k := a.owner(r)
	payload := view[k]
	if wantLast {
		return payload[a.grid.Cols : 2*a.grid.Cols]
	}
	return payload[:a.grid.Cols]
}

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
var vector = hasAVX2()

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

// ComputeOps implements core.App: ~6 flops per owned cell.
func (a *App) ComputeOps() float64 {
	lo, hi := a.rows()
	return 6 * float64(hi-lo) * float64(a.grid.Cols)
}

// Check implements core.App: the published edge rows are compared
// element-wise (they are the only values that entered the local stencil).
func (a *App) Check(peer int, pred, act, local []float64, t int) core.CheckResult {
	return core.RelErrCheck(a.Theta, 2, pred, act)
}

// RepairOps implements core.App: the bad fraction of a stencil sweep.
func (a *App) RepairOps(r core.CheckResult) float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Bad) / float64(r.Total) * a.ComputeOps()
}
