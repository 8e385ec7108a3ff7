package core

// The dependency structure. The paper's model is synchronous iteration over
// a fixed neighbor set — in the general case all-to-all. DepGraph
// generalizes that to an arbitrary directed dependency graph over the run's
// processors: an edge (From → To) means processor To reads processor From's
// iteration payloads, so To speculates on From's output, checks the
// prediction when the actual broadcast lands, and repairs on mismatch. A
// multi-stage pipeline is a chain; a strip stencil is StripGraph; the
// classical engine is the complete graph — the degenerate case every app
// without a graph runs on.
//
// The graph is static for the lifetime of a run and must be identical on
// every processor (it is part of the run's configuration, like FW). An app
// declares it one way, through the Grapher extension; an app without one
// runs on the complete graph.

import (
	"fmt"
	"sort"
)

// Edge is one directed dependency: processor To reads processor From's
// iteration payloads.
type Edge struct {
	From int
	To   int
}

// DepGraph is a static directed dependency graph over n processors.
// Construct one with NewDepGraph, CompleteGraph, ChainGraph or StripGraph;
// the zero value is not usable.
type DepGraph struct {
	n   int
	in  [][]int // in[j]: sorted ranks whose payloads node j reads
	out [][]int // out[j]: sorted ranks that read node j's payloads
	adj []bool  // adj[from*n+to]
}

// NewDepGraph builds a dependency graph over n processors from an explicit
// edge list. Self-loops and out-of-range endpoints are rejected; duplicate
// edges collapse. Nodes with no edges at all are legal — they run the
// iteration loop in isolation.
func NewDepGraph(n int, edges []Edge) (*DepGraph, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: DepGraph needs n >= 1, got %d", n)
	}
	g := &DepGraph{
		n:   n,
		in:  make([][]int, n),
		out: make([][]int, n),
		adj: make([]bool, n*n),
	}
	for _, e := range edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return nil, fmt.Errorf("core: DepGraph edge %d->%d out of range [0,%d)", e.From, e.To, n)
		}
		if e.From == e.To {
			return nil, fmt.Errorf("core: DepGraph self-loop on node %d", e.From)
		}
		if g.adj[e.From*n+e.To] {
			continue
		}
		g.adj[e.From*n+e.To] = true
		g.in[e.To] = append(g.in[e.To], e.From)
		g.out[e.From] = append(g.out[e.From], e.To)
	}
	for j := 0; j < n; j++ {
		sort.Ints(g.in[j])
		sort.Ints(g.out[j])
	}
	return g, nil
}

// CompleteGraph is the paper's general model: every processor reads every
// other ("each variable can potentially be a function of all other
// variables"). It is the degenerate DepGraph the classical engine runs as.
func CompleteGraph(n int) *DepGraph {
	edges := make([]Edge, 0, n*(n-1))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				edges = append(edges, Edge{From: i, To: j})
			}
		}
	}
	g, err := NewDepGraph(n, edges)
	if err != nil {
		panic(err) // unreachable: generated edges are always valid
	}
	return g
}

// ChainGraph is the linear pipeline 0 → 1 → ... → n-1: each stage reads
// only its predecessor's output.
func ChainGraph(n int) *DepGraph {
	edges := make([]Edge, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, Edge{From: i - 1, To: i})
	}
	g, err := NewDepGraph(n, edges)
	if err != nil {
		panic(err) // unreachable
	}
	return g
}

// Nodes returns the number of processors the graph spans.
func (g *DepGraph) Nodes() int { return g.n }

// In returns the sorted ranks node j reads from. Callers must not mutate it.
func (g *DepGraph) In(j int) []int { return g.in[j] }

// Out returns the sorted ranks that read node j. Callers must not mutate it.
func (g *DepGraph) Out(j int) []int { return g.out[j] }

// HasEdge reports whether node `to` reads node `from`.
func (g *DepGraph) HasEdge(from, to int) bool {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		return false
	}
	return g.adj[from*g.n+to]
}

// Edges returns every edge, sorted by (From, To).
func (g *DepGraph) Edges() []Edge {
	var out []Edge
	for from := 0; from < g.n; from++ {
		for _, to := range g.out[from] {
			out = append(out, Edge{From: from, To: to})
		}
	}
	return out
}

// StripGraph is the dependency graph of a 1-D strip decomposition: blocks[j]
// is rank j's half-open row range, and ranks whose strips touch (one ends
// where the other begins) read each other. It is the graph a nearest-neighbour
// stencil over horizontal strips runs on.
func StripGraph(blocks [][2]int) *DepGraph {
	var edges []Edge
	for i, a := range blocks {
		for j, b := range blocks {
			if i != j && (b[1] == a[0] || b[0] == a[1]) {
				edges = append(edges, Edge{From: j, To: i})
			}
		}
	}
	g, err := NewDepGraph(len(blocks), edges)
	if err != nil {
		panic(err) // unreachable: generated edges are always valid
	}
	return g
}

// Grapher is an optional App extension declaring the run's dependency graph:
// the engine reads it from Graph(p) once at startup. An app without Grapher,
// or whose Graph returns nil, runs on CompleteGraph(p) — the paper's
// all-to-all model. Every processor of a run must return an identical graph.
// Unneeded peers get no messages and a nil view entry, and Stopper.Done sees
// nil entries for them too.
type Grapher interface {
	// Graph returns the run's dependency graph over p processors.
	Graph(p int) *DepGraph
}

// resolveDeps computes this processor's local view of the run's dependency
// graph: the sorted list of ranks it reads (its in-edges) plus O(1)
// needs/neededBy masks.
func resolveDeps(app App, self, np int) (in []int, needs, neededBy []bool, err error) {
	var g *DepGraph
	if gr, ok := app.(Grapher); ok {
		g = gr.Graph(np)
	}
	if g == nil {
		g = CompleteGraph(np)
	}
	if g.Nodes() != np {
		return nil, nil, nil, fmt.Errorf("core: DepGraph spans %d nodes, run has %d processors", g.Nodes(), np)
	}
	needs = make([]bool, np)
	neededBy = make([]bool, np)
	in = g.In(self)
	for _, k := range in {
		needs[k] = true
	}
	for _, k := range g.Out(self) {
		neededBy[k] = true
	}
	return in, needs, neededBy, nil
}
