// Package stencilreduce composes two dependency patterns in one task
// graph: a 1-D diffusion stencil over W worker processors (cyclic pairwise
// adjacency — each worker reads its strip neighbours) feeding a fan-in
// reduce stage that folds every worker's block into running field
// statistics. The graph is declared directly through core.DepGraph /
// core.Grapher — it is not expressible as an acyclic pipeline.Graph, which
// is exactly the point: the engine takes arbitrary directed dependency
// structures, and the reduce rank speculates on all W workers at once
// while each worker speculates only on its two neighbours.
package stencilreduce

import (
	"fmt"
	"math"

	"specomp/internal/core"
)

// Config describes the global problem. Ranks 0..Workers-1 run the stencil;
// rank Workers runs the reducer, so a run spans Workers+1 processors.
type Config struct {
	// Cells is the number of 1-D rod cells, split contiguously over the
	// workers.
	Cells int
	// Workers is the number of stencil processors.
	Workers int
	// Alpha is the diffusion number (stability needs Alpha <= 0.5).
	Alpha float64
	// Left and Right are the fixed Dirichlet temperatures of the rod ends.
	Left, Right float64
	// Theta is the relative-error speculation threshold (0 = exact).
	Theta float64
}

// Default returns a stable configuration: a hot left end diffusing into a
// cold rod.
func Default(cells, workers int) Config {
	return Config{Cells: cells, Workers: workers, Alpha: 0.4, Left: 1, Right: 0, Theta: 1e-3}
}

// Procs is the number of processors the run spans (workers + reducer).
func (c Config) Procs() int { return c.Workers + 1 }

// Reducer is the reduce stage's rank.
func (c Config) Reducer() int { return c.Workers }

// Blocks returns every worker's contiguous cell range [lo, hi).
func (c Config) Blocks() [][2]int {
	if c.Workers < 1 || c.Cells < c.Workers {
		panic(fmt.Sprintf("stencilreduce: %d cells over %d workers", c.Cells, c.Workers))
	}
	blocks := make([][2]int, c.Workers)
	base, rem := c.Cells/c.Workers, c.Cells%c.Workers
	lo := 0
	for w := range blocks {
		hi := lo + base
		if w < rem {
			hi++
		}
		blocks[w] = [2]int{lo, hi}
		lo = hi
	}
	return blocks
}

// Graph returns the run's dependency structure: bidirectional edges between
// strip-adjacent workers plus one edge from every worker into the reducer.
func (c Config) Graph() *core.DepGraph {
	var edges []core.Edge
	for w := 1; w < c.Workers; w++ {
		edges = append(edges, core.Edge{From: w - 1, To: w}, core.Edge{From: w, To: w - 1})
	}
	for w := 0; w < c.Workers; w++ {
		edges = append(edges, core.Edge{From: w, To: c.Reducer()})
	}
	g, err := core.NewDepGraph(c.Procs(), edges)
	if err != nil {
		panic(err) // unreachable: generated edges are always valid
	}
	return g
}

// Initial returns the initial rod: Dirichlet ends, cold interior.
func (c Config) Initial() []float64 {
	x := make([]float64, c.Cells)
	x[0] = c.Left
	x[c.Cells-1] = c.Right
	return x
}

// SerialStep advances the rod one explicit diffusion step.
func (c Config) SerialStep(x []float64) []float64 {
	out := make([]float64, len(x))
	out[0], out[len(x)-1] = x[0], x[len(x)-1]
	for i := 1; i < len(x)-1; i++ {
		out[i] = x[i] + c.Alpha*(x[i-1]+x[i+1]-2*x[i])
	}
	return out
}

// reduceStats folds a field into the reducer's output row: mean, rms, max.
func reduceStats(x []float64, out []float64) {
	var sum, sq, max float64
	for _, v := range x {
		sum += v
		sq += v * v
		if v > max {
			max = v
		}
	}
	n := float64(len(x))
	out[0] = sum / n
	out[1] = math.Sqrt(sq / n)
	out[2] = max
}

// SerialRun advances iters steps and returns the final field plus the
// reducer's final statistics row. The reducer output at tick t+1 reflects
// the field at tick t (it reads the workers' tick-t broadcasts), so the
// final row is the stats of the field one step before the end.
func (c Config) SerialRun(iters int) (field, stats []float64) {
	x := c.Initial()
	stats = make([]float64, 3)
	for t := 0; t < iters; t++ {
		reduceStats(x, stats)
		x = c.SerialStep(x)
	}
	return x, stats
}

// App is one rank's adapter: a stencil worker or the reducer.
type App struct {
	cfg    Config
	rank   int
	blocks [][2]int
	g      *core.DepGraph
	n      int            // local partition length: the worker's cells, or the 3 statistics
	out    core.ResultBuf // Compute results
}

var (
	_ core.App          = (*App)(nil)
	_ core.ComputerInto = (*App)(nil)
	_ core.Grapher      = (*App)(nil)
)

// NewApp creates the adapter for the given rank (worker or reducer).
func NewApp(cfg Config, rank int) *App {
	a := &App{cfg: cfg, rank: rank, blocks: cfg.Blocks(), g: cfg.Graph(), n: 3}
	if rank != cfg.Reducer() {
		a.n = a.blocks[rank][1] - a.blocks[rank][0]
	}
	return a
}

func (a *App) Graph(p int) *core.DepGraph { return a.g }

func (a *App) InitLocal() []float64 {
	init := make([]float64, a.n)
	if a.rank != a.cfg.Reducer() {
		full := a.cfg.Initial()
		copy(init, full[a.blocks[a.rank][0]:a.blocks[a.rank][1]])
	}
	return init
}

// Compute implements core.App: ComputeInto into the next result buffer.
func (a *App) Compute(view [][]float64, t int) []float64 { return a.out.Compute(a, view, a.rank, t) }

// ComputeInto implements core.ComputerInto. A worker's two end cells — rod
// ends, or cells reading a neighbour's edge — are peeled off the interior loop.
func (a *App) ComputeInto(out []float64, view [][]float64, t int) {
	if a.rank == a.cfg.Reducer() {
		a.reduce(view, out)
		return
	}
	lo := a.blocks[a.rank][0]
	self := view[a.rank][:len(out)]
	alpha := a.cfg.Alpha
	last := len(self) - 1
	for j := 1; j < len(self)-1; j++ {
		out[j] = self[j] + alpha*(self[j-1]+self[j+1]-2*self[j])
	}
	for _, j := range [2]int{0, last} { // the same cell twice when the block has one
		if gi := lo + j; gi == 0 || gi == a.cfg.Cells-1 {
			out[j] = self[j] // Dirichlet ends
			continue
		}
		var lv, rv float64
		if j > 0 {
			lv = self[j-1]
		} else {
			nb := view[a.rank-1]
			lv = nb[len(nb)-1]
		}
		if j < last {
			rv = self[j+1]
		} else {
			rv = view[a.rank+1][0]
		}
		out[j] = self[j] + alpha*(lv+rv-2*self[j])
	}
}

// reduce folds every worker's tick-t block into the statistics row. It
// iterates blocks in rank order, reproducing reduceStats over the
// concatenated field exactly.
func (a *App) reduce(view [][]float64, out []float64) {
	var sum, sq, max float64
	for w := 0; w < a.cfg.Workers; w++ {
		for _, v := range view[w] {
			sum += v
			sq += v * v
			if v > max {
				max = v
			}
		}
	}
	n := float64(a.cfg.Cells)
	out[0] = sum / n
	out[1] = math.Sqrt(sq / n)
	out[2] = max
}

func (a *App) ComputeOps() float64 {
	if a.rank == a.cfg.Reducer() {
		return float64(2 * a.cfg.Cells)
	}
	return float64(5 * a.n)
}

func (a *App) Check(peer int, predicted, actual, local []float64, t int) core.CheckResult {
	return core.RelErrCheck(a.cfg.Theta, 1, predicted, actual)
}

func (a *App) RepairOps(r core.CheckResult) float64 {
	ops := a.ComputeOps()
	if r.Total == 0 {
		return ops
	}
	return ops * float64(r.Bad) / float64(r.Total)
}
