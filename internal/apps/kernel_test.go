// Package apps_test checks the contract every application kernel under
// internal/apps (and the N-body case study) shares: Compute equals the
// package's serial reference bit for bit over random problems and
// decompositions, results do not depend on whether the caller copies them,
// feeds them straight back (core.App's result-ownership rule) or lends the
// destination (core.ComputerInto), the steady-state Compute/ComputeInto/
// Publish path allocates nothing, and no NaN or ±Inf passes any app's Check.
package apps_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"specomp/internal/apps/heat"
	"specomp/internal/apps/jacobi"
	"specomp/internal/apps/pagerank"
	"specomp/internal/apps/sor"
	"specomp/internal/apps/stencilreduce"
	"specomp/internal/core"
	"specomp/internal/nbody"
	"specomp/internal/pipeline"
)

// kernelCase is one problem instance: P fresh apps over one global state,
// their iteration-0 partitions, and the serial reference's partitions after
// steps iterations.
type kernelCase struct {
	name  string
	apps  func() []core.App
	init  [][]float64
	steps int
	want  [][]float64
}

// views assembles every rank's iteration view the way the engine does: its
// own full partition, each peer's published form. keep is applied to every
// Publish result.
func views(apps []core.App, local [][]float64, keep func([]float64) []float64) [][][]float64 {
	pub := make([][]float64, len(apps))
	for k, a := range apps {
		pub[k] = local[k]
		if p, ok := a.(core.Publisher); ok {
			pub[k] = keep(p.Publish(local[k]))
		}
	}
	out := make([][][]float64, len(apps))
	for k := range apps {
		out[k] = append([][]float64{}, pub...)
		out[k][k] = local[k]
	}
	return out
}

func clone(v []float64) []float64 { return append([]float64{}, v...) }

// convention is how drive calls the kernels.
type convention int

const (
	// copied: every Compute and Publish result is copied before it is used,
	// as the value plane does for an app without core.ComputerInto.
	copied convention = iota
	// feedback: each result is passed straight back as the next call's view
	// entry — the limit of the ownership rule.
	feedback
	// into: ComputeInto writes a fresh buffer filled with NaN, as the engine
	// lends its slot, so a kernel that reads dst or skips an element shows.
	into
)

func (c convention) String() string { return [...]string{"copied", "feedback", "into"}[c] }

// nanBuf returns a length-n buffer whose every element is NaN.
func nanBuf(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = math.NaN()
	}
	return b
}

// drive runs the apps in lockstep under one calling convention and returns
// every rank's final partition.
func drive(tb testing.TB, c kernelCase, conv convention) [][]float64 {
	apps := c.apps()
	keep := clone
	if conv == feedback {
		keep = func(v []float64) []float64 { return v }
	}
	local := c.init
	for t := 0; t < c.steps; t++ {
		next := make([][]float64, len(apps))
		for k, view := range views(apps, local, keep) {
			if conv != into {
				next[k] = keep(apps[k].Compute(view, t))
				continue
			}
			ci, ok := apps[k].(core.ComputerInto)
			if !ok {
				tb.Fatalf("%s: %T does not implement core.ComputerInto", c.name, apps[k])
			}
			next[k] = nanBuf(len(view[k]))
			ci.ComputeInto(next[k], view, t)
		}
		local = next
	}
	return local
}

func sameBits(a, b [][]float64) error {
	for k := range a {
		if len(a[k]) != len(b[k]) {
			return fmt.Errorf("rank %d: %d values, want %d", k, len(a[k]), len(b[k]))
		}
		for i := range a[k] {
			if math.Float64bits(a[k][i]) != math.Float64bits(b[k][i]) {
				return fmt.Errorf("rank %d value %d: %v, want %v", k, i, a[k][i], b[k][i])
			}
		}
	}
	return nil
}

// cuts splits n units into p non-empty consecutive blocks at random.
func cuts(rng *rand.Rand, n, p int) [][2]int {
	ends := append(rng.Perm(n - 1)[:p-1], n-1) // each block's last unit
	sort.Ints(ends)
	blocks := make([][2]int, p)
	lo := 0
	for k, e := range ends {
		blocks[k] = [2]int{lo, e + 1}
		lo = e + 1
	}
	return blocks
}

// split cuts a flat global state into per-rank partitions, width values per
// unit.
func split(global []float64, blocks [][2]int, width int) [][]float64 {
	parts := make([][]float64, len(blocks))
	for k, b := range blocks {
		parts[k] = global[b[0]*width : b[1]*width]
	}
	return parts
}

func randField(rng *rand.Rand, rows, cols int) [][]float64 {
	f := make([][]float64, rows)
	for r := range f {
		f[r] = make([]float64, cols)
		for c := range f[r] {
			f[r][c] = 200*rng.Float64() - 50
		}
	}
	return f
}

func flatten(f [][]float64) []float64 {
	var out []float64
	for _, row := range f {
		out = append(out, row...)
	}
	return out
}

// gridShape draws a stencil problem: tiny grids, the degenerate widths,
// widths up to 40 columns (heat's vector kernel takes blocks of four interior
// cells, so these cover every leftover count and several blocks per row), and
// P anywhere from one strip to one row per strip.
func gridShape(rng *rand.Rand, i int) (rows, cols int, blocks [][2]int) {
	rows = 1 + rng.Intn(12)
	cols = []int{1, 2, 3, 4 + rng.Intn(37)}[i%4]
	p := 1 + rng.Intn(rows)
	if i%3 == 0 {
		p = rows // every strip a single row, Dirichlet rows alone on a rank
	}
	return rows, cols, cuts(rng, rows, p)
}

func heatCase(rng *rand.Rand, i int) kernelCase {
	rows, cols, blocks := gridShape(rng, i)
	g := heat.Grid{Rows: rows, Cols: cols, Alpha: 0.25 * rng.Float64(), Top: 100, Bottom: -3}
	f := randField(rng, rows, cols)
	steps := 1 + rng.Intn(6)
	c := kernelCase{
		name:  fmt.Sprintf("heat/%dx%d/P%d", rows, cols, len(blocks)),
		init:  split(flatten(f), blocks, cols),
		steps: steps,
		apps: func() []core.App {
			apps := make([]core.App, len(blocks))
			for k := range apps {
				apps[k] = heat.NewApp(g, blocks, k, 1e-3)
			}
			return apps
		},
	}
	for t := 0; t < steps; t++ {
		f = g.SerialStep(f)
	}
	c.want = split(flatten(f), blocks, cols)
	return c
}

func sorCase(rng *rand.Rand, i int) kernelCase {
	rows, cols, blocks := gridShape(rng, i)
	g := sor.Grid{Rows: rows, Cols: cols, Omega: 1 + rng.Float64(), Top: 100, Bottom: -3}
	f := randField(rng, rows, cols)
	sweeps := 1 + rng.Intn(3)
	c := kernelCase{
		name:  fmt.Sprintf("sor/%dx%d/P%d", rows, cols, len(blocks)),
		init:  split(flatten(f), blocks, cols),
		steps: 2 * sweeps, // one engine iteration per colour
		apps: func() []core.App {
			apps := make([]core.App, len(blocks))
			for k := range apps {
				apps[k] = sor.NewApp(g, blocks, k, 1e-3)
			}
			return apps
		},
	}
	for s := 0; s < sweeps; s++ {
		g.SerialSweep(f)
	}
	c.want = split(flatten(f), blocks, cols)
	return c
}

func stencilReduceCase(rng *rand.Rand, i int) kernelCase {
	workers := 1 + rng.Intn(5)
	cells := workers + rng.Intn(3*workers)
	if i%3 == 0 {
		cells = workers // one cell per worker
	}
	cfg := stencilreduce.Default(max(cells, 2), workers)
	cfg.Alpha, cfg.Left, cfg.Right = 0.5*rng.Float64(), 10*rng.Float64(), -rng.Float64()
	steps := 1 + rng.Intn(8)
	field, stats := cfg.SerialRun(steps)
	return kernelCase{
		name:  fmt.Sprintf("stencilreduce/%d/W%d", cfg.Cells, cfg.Workers),
		init:  append(split(cfg.Initial(), cfg.Blocks(), 1), make([]float64, 3)),
		steps: steps,
		want:  append(split(field, cfg.Blocks(), 1), stats),
		apps: func() []core.App {
			apps := make([]core.App, cfg.Procs())
			for k := range apps {
				apps[k] = stencilreduce.NewApp(cfg, k)
			}
			return apps
		},
	}
}

func jacobiCase(rng *rand.Rand, i int) kernelCase {
	n := 1 + rng.Intn(24)
	prob := jacobi.NewDiagonallyDominant(n, rng.Int63())
	blocks := cuts(rng, n, 1+rng.Intn(n))
	x := flatten(randField(rng, 1, n))
	steps := 1 + rng.Intn(6)
	c := kernelCase{
		name:  fmt.Sprintf("jacobi/%d/P%d", n, len(blocks)),
		init:  split(x, blocks, 1),
		steps: steps,
		apps: func() []core.App {
			apps := make([]core.App, len(blocks))
			for k := range apps {
				apps[k] = jacobi.NewApp(prob, blocks, k, 1e-3)
			}
			return apps
		},
	}
	for t := 0; t < steps; t++ {
		x = prob.SerialStep(x)
	}
	c.want = split(x, blocks, 1)
	return c
}

func pagerankCase(rng *rand.Rand, i int) kernelCase {
	n := 2 + rng.Intn(40)
	g := pagerank.NewRandomGraph(n, 1+rng.Intn(4), rng.Int63())
	g.Dangle(rng.Intn(n / 2))
	prob := pagerank.NewProblem(g, 0.85)
	blocks := cuts(rng, n, 1+rng.Intn(n))
	r := flatten(randField(rng, 1, n))
	steps := 1 + rng.Intn(6)
	c := kernelCase{
		name:  fmt.Sprintf("pagerank/%d/P%d", n, len(blocks)),
		init:  split(r, blocks, 1),
		steps: steps,
		apps: func() []core.App {
			apps := make([]core.App, len(blocks))
			for k := range apps {
				apps[k] = pagerank.NewApp(prob, blocks, k, 1e-3)
			}
			return apps
		},
	}
	for t := 0; t < steps; t++ {
		r = prob.Step(r)
	}
	c.want = split(r, blocks, 1)
	return c
}

func nbodyCase(rng *rand.Rand, i int) kernelCase {
	n := 1 + rng.Intn(20)
	sim := nbody.DefaultSim()
	ps := nbody.UniformSphere(n, rng.Int63())
	blocks := cuts(rng, n, 1+rng.Intn(n))
	steps := 1 + rng.Intn(4)
	c := kernelCase{
		name:  fmt.Sprintf("nbody/%d/P%d", n, len(blocks)),
		init:  split(nbody.Encode(ps), blocks, nbody.Floats),
		steps: steps,
		want:  split(nbody.Encode(sim.Evolve(ps, steps)), blocks, nbody.Floats),
	}
	c.apps = func() []core.App {
		apps := make([]core.App, len(blocks))
		for k, b := range blocks {
			apps[k] = nbody.NewApp(sim, ps[b[0]:b[1]], n, k, 1e-4, nil)
		}
		return apps
	}
	return c
}

var kernels = []func(*rand.Rand, int) kernelCase{
	heatCase, sorCase, stencilReduceCase, jacobiCase, pagerankCase, nbodyCase,
}

// TestComputeMatchesSerialBitForBit is the property test: all three calling
// conventions reproduce the serial reference exactly.
func TestComputeMatchesSerialBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, mk := range kernels {
		for i := 0; i < 60; i++ {
			c := mk(rng, i)
			for _, conv := range []convention{copied, feedback, into} {
				if err := sameBits(drive(t, c, conv), c.want); err != nil {
					t.Errorf("%s steps=%d %v: %v", c.name, c.steps, conv, err)
				}
			}
		}
	}
}

// TestSteadyStateKernelsAllocateNothing pins the scratch treatment: after
// one warm-up call, Compute, ComputeInto and Publish allocate nothing.
func TestSteadyStateKernelsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; exact malloc counts are meaningless")
	}
	rng := rand.New(rand.NewSource(15))
	for _, mk := range kernels {
		c := mk(rng, 1) // i=1: a random decomposition, not the one-unit-per-rank corner
		apps := c.apps()
		for k, view := range views(apps, c.init, clone) {
			a := apps[k]
			a.Compute(view, 0)
			if n := testing.AllocsPerRun(20, func() { a.Compute(view, 0) }); n != 0 {
				t.Errorf("%s rank %d: Compute allocates %v times per call", c.name, k, n)
			}
			dst := make([]float64, len(view[k]))
			ci := a.(core.ComputerInto)
			if n := testing.AllocsPerRun(20, func() { ci.ComputeInto(dst, view, 0) }); n != 0 {
				t.Errorf("%s rank %d: ComputeInto allocates %v times per call", c.name, k, n)
			}
			if p, ok := a.(core.Publisher); ok {
				p.Publish(c.init[k])
				if n := testing.AllocsPerRun(20, func() { p.Publish(c.init[k]) }); n != 0 {
					t.Errorf("%s rank %d: Publish allocates %v times per call", c.name, k, n)
				}
			}
		}
	}
}

// checkSubject is one app's Check on one in-edge as the engine calls it:
// a rank judging peer k's published payload act against a prediction.
type checkSubject struct {
	name string
	act  []float64
	// width is how many payload values one remote item spans (a particle's
	// Floats for nbody, 1 otherwise).
	width int
	// check runs Check(k, pred, act, local) on an app built afresh, after
	// the same earlier check when the subject has history, so a check that
	// remembers actuals (pagerank's) judges every call against the same one.
	check func(pred, act []float64) core.CheckResult
}

func newCheckSubject(name string, mk func() core.App, k int, act, local []float64, history bool) checkSubject {
	width := 1
	if _, ok := mk().(*nbody.App); ok {
		width = nbody.Floats
	}
	earlier := make([]float64, len(act))
	for i, v := range act {
		earlier[i] = v / 2
	}
	return checkSubject{
		name:  fmt.Sprintf("%s/history=%v", name, history),
		act:   act,
		width: width,
		check: func(pred, act []float64) core.CheckResult {
			a := mk()
			if history {
				a.Check(k, earlier, earlier, local, 0)
			}
			return a.Check(k, pred, act, local, 1)
		},
	}
}

// checkSubjects returns every app's Check, each kernel on a few random
// problems (its last rank judging the rank before it, an in-edge in every
// kernel's graph) and one pipeline stage judging its upstream stage.
func checkSubjects(rng *rand.Rand) []checkSubject {
	var out []checkSubject
	for _, mk := range kernels {
		for i, n := 0, 0; n < 3; i++ {
			c := mk(rng, i)
			r := len(c.init) - 1
			if r < 1 {
				continue
			}
			n++
			act := views(c.apps(), c.init, clone)[r][r-1]
			for _, history := range []bool{false, true} {
				out = append(out, newCheckSubject(c.name, func() core.App { return c.apps()[r] }, r-1, act, c.init[r], history))
			}
		}
	}
	g := pipeline.ThreeStage(8, 42)
	for _, history := range []bool{false, true} {
		out = append(out, newCheckSubject("pipeline/filter", func() core.App { return g.App(1) }, 0,
			g.App(0).InitLocal(), g.App(1).InitLocal(), history))
	}
	return out
}

// TestNoNaNOrInfPassesCheck is the property over every app's Check: a NaN
// or ±Inf in the prediction or the actual counts bad every unit that reads
// that value, and only those; finite values keep their verdicts — a unit is
// good when exact and bad when 10 % off, whatever its neighbours hold. A
// unit's dependence on a value is read off a finite 10 % error in it alone,
// so values no unit reads (an nbody mass or velocity, a pagerank vertex the
// local update never pulls from) change nothing either way.
func TestNoNaNOrInfPassesCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	poisons := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, s := range checkSubjects(rng) {
		act, w := s.act, s.width
		if res := s.check(act, act); res.Bad != 0 || res.Total == 0 {
			t.Errorf("%s: a perfect prediction reads %d bad of %d", s.name, res.Bad, res.Total)
			continue
		}
		off := func(pred []float64, lo, hi int) []float64 {
			for i := lo; i < hi; i++ {
				pred[i] = act[i] + 0.1*(1+math.Abs(act[i]))
			}
			return pred
		}
		units, read := make([]int, len(act)), 0
		for i := range act {
			units[i] = s.check(off(clone(act), i, i+1), act).Bad
			read += units[i]
		}
		if read == 0 {
			t.Errorf("%s: no value feeds any unit", s.name)
			continue
		}
		// A finite prediction with a random half of the items 10 % off.
		pred, want := clone(act), 0
		for g := 0; g < len(act)/w; g++ {
			if rng.Intn(2) == 0 {
				want += s.check(off(clone(act), g*w, (g+1)*w), act).Bad
				off(pred, g*w, (g+1)*w)
			}
		}
		if got := s.check(pred, act).Bad; got != want {
			t.Errorf("%s: finite prediction reads %d bad, want %d (the off items' units)", s.name, got, want)
		}
		for i := range act {
			g := i / w
			exact := clone(pred)
			copy(exact[g*w:(g+1)*w], act[g*w:(g+1)*w])
			base := s.check(exact, act).Bad
			for _, v := range poisons {
				p, a := clone(exact), clone(act)
				p[i], a[i] = v, v
				if got := s.check(p, act).Bad; got != base+units[i] {
					t.Errorf("%s: pred[%d] = %v reads %d bad, want %d", s.name, i, v, got, base+units[i])
				}
				if got := s.check(exact, a).Bad; got != base+units[i] {
					t.Errorf("%s: act[%d] = %v reads %d bad, want %d", s.name, i, v, got, base+units[i])
				}
			}
		}
	}
}
