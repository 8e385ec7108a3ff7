package heat

// The strip shell heat and SOR (internal/apps/sor) share: the Field both
// relax, its initial and steady states, the field comparison the tests and
// the benchmark judge by, and Strip, everything of an app but the update
// itself.

import (
	"fmt"
	"math"

	"specomp/internal/core"
)

// Field is the part of a grid every strip app shares: Rows×Cols cells,
// the first row held at Top and the last at Bottom. Heat's Grid carries the
// same four values; SOR's Grid embeds a Field.
type Field struct {
	Rows, Cols  int
	Top, Bottom float64
}

// initialValue is the initial value of every cell of row r: the Dirichlet
// value on a boundary row, the mean in the interior.
func (f Field) initialValue(r int) float64 {
	switch r {
	case 0:
		return f.Top
	case f.Rows - 1:
		return f.Bottom
	}
	return (f.Top + f.Bottom) / 2
}

// Initial returns the initial field: boundary rows at their Dirichlet
// values, interior at the mean.
func (f Field) Initial() [][]float64 {
	out := make([][]float64, f.Rows)
	for r := range out {
		out[r] = make([]float64, f.Cols)
		fill(out[r], f.initialValue(r))
	}
	return out
}

// SteadyState returns the analytic steady solution of both the heat and
// the Laplace problem: a linear profile from Top to Bottom, uniform across
// columns.
func (f Field) SteadyState() [][]float64 {
	out := make([][]float64, f.Rows)
	for r := range out {
		out[r] = make([]float64, f.Cols)
		fill(out[r], f.Top+(f.Bottom-f.Top)*float64(r)/float64(f.Rows-1))
	}
	return out
}

func fill(row []float64, v float64) {
	for c := range row {
		row[c] = v
	}
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

// Strip is the shell of an app that decomposes a Field into horizontal
// strips, one per processor: processor pid owns global rows blocks[pid], the
// blocks tile [0, Rows) in rank order, so the strip above is pid−1 and the
// one below pid+1. It implements core.Publisher: only the strip's first and
// last rows travel on the network — the ghost rows neighbours actually need —
// so message sizes and speculation/checking overhead are proportional to the
// interface, not the volume. Heat's App and SOR's embed it and add the
// update itself.
type Strip struct {
	field  Field
	pid    int
	blocks [][2]int // per-processor global row ranges [lo, hi)
	// Theta is the relative-error speculation threshold.
	Theta float64

	flops float64        // per owned cell and iteration (ComputeOps)
	pub   core.ResultBuf // Publish results
}

// NewStrip builds processor pid's shell. blocks lists every processor's row
// range; they must tile [0, Rows) in rank order, every processor owning at
// least one row (app names the caller in the panic). flops is the update's
// cost per owned cell.
func NewStrip(app string, f Field, blocks [][2]int, pid int, theta, flops float64) Strip {
	lo := 0
	for i, b := range blocks {
		if b[0] != lo || b[1] <= b[0] {
			panic(fmt.Sprintf("%s: processor %d owns rows [%d, %d), want a non-empty strip from row %d", app, i, b[0], b[1], lo))
		}
		lo = b[1]
	}
	if lo != f.Rows {
		panic(fmt.Sprintf("%s: strips cover %d of %d rows", app, lo, f.Rows))
	}
	return Strip{field: f, pid: pid, blocks: blocks, Theta: theta, flops: flops}
}

// Graph implements core.Grapher: only touching strips feed the stencil, in
// both directions.
func (s *Strip) Graph(p int) *core.DepGraph { return core.StripGraph(s.blocks) }

func (s *Strip) rows() (lo, hi int) { return s.blocks[s.pid][0], s.blocks[s.pid][1] }

// Rank returns the processor that owns the strip.
func (s *Strip) Rank() int { return s.pid }

// InitLocal implements core.App: the owned rows of Field.Initial.
func (s *Strip) InitLocal() []float64 {
	lo, hi := s.rows()
	c := s.field.Cols
	out := make([]float64, (hi-lo)*c)
	for r := lo; r < hi; r++ {
		fill(out[(r-lo)*c:(r-lo+1)*c], s.field.initialValue(r))
	}
	return out
}

// Publish implements core.Publisher: the strip's first and last rows,
// concatenated — everything any neighbour's stencil can touch.
func (s *Strip) Publish(local []float64) []float64 {
	c := s.field.Cols
	out := s.pub.Next(2 * c)
	copy(out, local[:c])
	copy(out[c:], local[len(local)-c:])
	return out
}

// ghostRow returns global row r, the row just outside the strip, from the
// neighbour's published payload: row lo−1 is the last row of the strip
// above (offset Cols), row hi the first row of the strip below (offset 0).
func (s *Strip) ghostRow(view [][]float64, r int, wantLast bool) []float64 {
	c := s.field.Cols
	if wantLast {
		return view[s.pid-1][c : 2*c]
	}
	return view[s.pid+1][:c]
}

// Window returns what one update of the strip reads: its global rows
// [lo, hi), its own rows from view, and the ghost rows above and below it
// (nil on the grid's edge).
func (s *Strip) Window(view [][]float64) (lo, hi int, own, up, down []float64) {
	lo, hi = s.rows()
	if lo > 0 {
		up = s.ghostRow(view, lo-1, true)
	}
	if hi < s.field.Rows {
		down = s.ghostRow(view, hi, false)
	}
	return lo, hi, view[s.pid], up, down
}

// ComputeOps implements core.App: the update's flops per owned cell.
func (s *Strip) ComputeOps() float64 {
	lo, hi := s.rows()
	return s.flops * float64(hi-lo) * float64(s.field.Cols)
}

// Check implements core.App: the published edge rows are compared
// element-wise (they are the only values that entered the local stencil).
func (s *Strip) Check(peer int, pred, act, local []float64, t int) core.CheckResult {
	return core.RelErrCheck(s.Theta, 2, pred, act)
}

// RepairOps implements core.App: the bad fraction of a sweep.
func (s *Strip) RepairOps(r core.CheckResult) float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Bad) / float64(r.Total) * s.ComputeOps()
}
