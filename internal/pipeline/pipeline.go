// Package pipeline builds multi-stage streaming pipelines on the engine's
// DepGraph abstraction: each stage is one processor of a speculative run,
// reading the previous tick's outputs of its upstream stages. Downstream
// stages speculate on upstream outputs through the engine's ordinary
// predictors — stage N+1 runs on *predicted* stage-N output inside the
// forward window, checks the prediction when the actual broadcast lands,
// and repairs on mismatch, cascading the recomputation through any ticks
// already computed on the stale value. Checkpoint/restore works unchanged:
// a stage is just an App, so per-stage state snapshots through
// internal/checkpoint and a mid-pipeline crash is bridged by the downstream
// stages speculating deeper (MaxCrashOverrun) until the stage rejoins.
//
// Tick semantics map one-to-one onto engine iterations: at tick t every
// stage holds an output row; tick t+1 is computed from the stage's own row
// and its upstream rows at tick t. A pipeline therefore advances like a
// systolic array — data entered at the source reaches stage k after k
// ticks — and the serial reference (Serial) is plain lockstep evaluation.
package pipeline

import (
	"fmt"

	"specomp/internal/core"
)

// Stage is one node of a streaming task DAG.
type Stage struct {
	// Name labels the stage in experiments and traces.
	Name string
	// Width is the number of elements in the stage's output row.
	Width int
	// Init fills the stage's tick-0 output; nil leaves zeros.
	Init func(out []float64)
	// Step computes the tick-(t+1) output. self is the stage's own tick-t
	// row; in holds the upstream stages' tick-t rows in the order their ids
	// were passed to Add; out (len Width, the engine's slot or a reused
	// buffer) holds stale contents Step must overwrite in full, unread.
	// self and in alias engine-owned buffers and must not be retained or
	// mutated. Step must be deterministic in (t, self, in) — repairs
	// recompute it and expect identical results.
	Step func(t int, self []float64, in [][]float64, out []float64)
	// Ops is the modelled operation cost of one Step on the simulated
	// cluster (defaults to Width).
	Ops float64
	// Tol is the per-element relative tolerance when validating speculated
	// inputs *from* this stage (the edge source's contract): a prediction
	// element p of actual a fails when |p-a| > Tol·(1+|a|). Zero demands
	// exactness, repairing every imperfect prediction.
	Tol float64
	// CheckOps is the per-element operation cost of one such check
	// (defaults to 1).
	CheckOps float64
}

// Graph is a task DAG of stages under construction. Stages are added in
// topological order (upstream ids must already exist), which makes the DAG
// acyclic by construction; cyclic dependency structures are expressed
// directly through core.DepGraph instead (see internal/apps/stencilreduce).
type Graph struct {
	stages []Stage
	up     [][]int
}

// New returns an empty pipeline graph.
func New() *Graph { return &Graph{} }

// Add appends a stage reading the listed upstream stages' outputs and
// returns its id. Upstream ids must have been returned by earlier Add
// calls. Panics on malformed wiring — pipeline construction is static
// configuration, not data-dependent.
func (g *Graph) Add(s Stage, upstream ...int) int {
	id := len(g.stages)
	if s.Width <= 0 {
		panic(fmt.Sprintf("pipeline: stage %q (id %d) needs Width >= 1", s.Name, id))
	}
	for _, u := range upstream {
		if u < 0 || u >= id {
			panic(fmt.Sprintf("pipeline: stage %q (id %d) upstream %d not yet added", s.Name, id, u))
		}
	}
	if s.Ops <= 0 {
		s.Ops = float64(s.Width)
	}
	if s.CheckOps <= 0 {
		s.CheckOps = 1
	}
	g.stages = append(g.stages, s)
	g.up = append(g.up, append([]int(nil), upstream...))
	return id
}

// Stages returns the number of stages.
func (g *Graph) Stages() int { return len(g.stages) }

// Stage returns stage id's definition.
func (g *Graph) Stage(id int) Stage { return g.stages[id] }

// DepGraph projects the stage DAG onto processor ranks under place
// (place[stage] = rank, a permutation; nil means identity). The result is
// what the engine consumes: rank place[s] reads rank place[u] for every
// upstream u of s.
func (g *Graph) DepGraph(place []int) (*core.DepGraph, error) {
	place, err := g.checkPlacement(place)
	if err != nil {
		return nil, err
	}
	var edges []core.Edge
	for s := range g.stages {
		for _, u := range g.up[s] {
			edges = append(edges, core.Edge{From: place[u], To: place[s]})
		}
	}
	return core.NewDepGraph(len(g.stages), edges)
}

// checkPlacement validates place as a stage→rank permutation, defaulting
// nil to the identity.
func (g *Graph) checkPlacement(place []int) ([]int, error) {
	n := len(g.stages)
	if place == nil {
		place = make([]int, n)
		for i := range place {
			place[i] = i
		}
		return place, nil
	}
	if len(place) != n {
		return nil, fmt.Errorf("pipeline: placement has %d entries, graph has %d stages", len(place), n)
	}
	seen := make([]bool, n)
	for s, r := range place {
		if r < 0 || r >= n || seen[r] {
			return nil, fmt.Errorf("pipeline: placement %v is not a permutation (stage %d -> rank %d)", place, s, r)
		}
		seen[r] = true
	}
	return place, nil
}

// App returns the core.App adapter running stage `stage` under identity
// placement (stage s on rank s).
func (g *Graph) App(stage int) core.App {
	a, err := g.AppAt(nil, stage)
	if err != nil {
		panic(err) // identity placement never fails
	}
	return a
}

// AppAt returns the core.App adapter for the stage placed on `rank` under
// place (place[stage] = rank; nil = identity). The adapter implements
// core.Grapher, so the engine picks up the rank-level dependency graph
// automatically on any transport.
func (g *Graph) AppAt(place []int, rank int) (core.App, error) {
	place, err := g.checkPlacement(place)
	if err != nil {
		return nil, err
	}
	stage := -1
	for s, r := range place {
		if r == rank {
			stage = s
			break
		}
	}
	if stage == -1 {
		return nil, fmt.Errorf("pipeline: rank %d has no stage under placement %v", rank, place)
	}
	dg, err := g.DepGraph(place)
	if err != nil {
		return nil, err
	}
	s := g.stages[stage]
	return &stageApp{
		g:     g,
		dg:    dg,
		stage: stage,
		rank:  rank,
		place: place,
		def:   s,
		in:    make([][]float64, len(g.up[stage])),
	}, nil
}

// stageApp adapts one pipeline stage to the engine's App contract. Step
// writes the engine's lent slot (core.ComputerInto) or, for Compute, a
// ping-pong pair, so a steady-state Step allocates nothing.
type stageApp struct {
	g     *Graph
	dg    *core.DepGraph
	stage int
	rank  int
	place []int
	def   Stage
	in    [][]float64
	out   core.ResultBuf
}

var (
	_ core.App          = (*stageApp)(nil)
	_ core.ComputerInto = (*stageApp)(nil)
	_ core.Grapher      = (*stageApp)(nil)
)

func (a *stageApp) Graph(p int) *core.DepGraph { return a.dg }

func (a *stageApp) InitLocal() []float64 {
	buf := make([]float64, a.def.Width)
	if a.def.Init != nil {
		a.def.Init(buf)
	}
	return buf
}

func (a *stageApp) Compute(view [][]float64, t int) []float64 {
	return a.out.Compute(a, view, a.rank, t)
}

func (a *stageApp) ComputeInto(out []float64, view [][]float64, t int) {
	for i, u := range a.g.up[a.stage] {
		a.in[i] = view[a.place[u]]
	}
	a.def.Step(t, view[a.rank], a.in, out)
}

func (a *stageApp) ComputeOps() float64 { return a.def.Ops }

// Check validates a speculated upstream row against the actual broadcast
// under the *source* stage's tolerance: the producing stage knows how
// smooth its output is.
func (a *stageApp) Check(peer int, predicted, actual, local []float64, t int) core.CheckResult {
	src := a.def
	for s, r := range a.place {
		if r == peer {
			src = a.g.stages[s]
			break
		}
	}
	return core.RelErrCheck(src.Tol, src.CheckOps, predicted, actual)
}

// RepairOps charges a full Step re-evaluation scaled by the fraction of
// input elements that were out of tolerance — the paper's k·N_i·f_comp.
func (a *stageApp) RepairOps(r core.CheckResult) float64 {
	if r.Total == 0 {
		return a.def.Ops
	}
	return a.def.Ops * float64(r.Bad) / float64(r.Total)
}
