package core

// The cascade's input rule — a recompute never rests on a prediction the
// stash can already replace, and an input upgraded to its actual is not
// checked again — pinned on the simulator, where every count repeats exactly.
// The numbers marked "parent" were recorded on e543b76, the commit before the
// rule: whenever nothing has arrived by the time a cascade runs, the engine
// must behave exactly as it did there.

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"specomp/internal/cluster"
	"specomp/internal/obs"
)

const cascadeIters = 30

// computesPerIter is the cost of a run in units of one Compute per
// iteration: 1 is a run that never recomputed anything.
func computesPerIter(s Stats) float64 {
	return float64(s.Iters+s.Repairs+s.CascadeRedos) / float64(s.Iters)
}

func finalsHash(results []Result) uint64 {
	h := fnv.New64a()
	for _, v := range finals(results) {
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
	}
	return h.Sum64()
}

// fanIn is a graph on which bit-exactness against the serial reference is
// well defined at any FW: ranks 0..p-2 are sources that evolve on their own
// (a logistic map, so a linear extrapolation of them is always a little
// wrong) and rank p-1 reads all of them. Nothing a speculating rank computed
// is ever sent, so at a zero tolerance the sink's final value is exact if and
// only if every one of its iterations was last computed on actuals.
type fanIn struct {
	pid, p int
	out    [1]float64
}

func fanInGraph(p int) *DepGraph {
	edges := make([]Edge, 0, p-1)
	for k := 0; k < p-1; k++ {
		edges = append(edges, Edge{From: k, To: p - 1})
	}
	g, err := NewDepGraph(p, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// Graph implements Grapher.
func (a *fanIn) Graph(p int) *DepGraph { return fanInGraph(p) }

func fanInF(x float64) float64 { return 3.2 * x * (1 - x) }

func fanInInit(pid, p int) float64 { return 0.25 + 0.5*float64(pid)/float64(p) }

// fanInStep advances the whole system one iteration; the engine's ranks and
// the serial reference share it, so they add in the same order.
func fanInStep(x []float64, j int) float64 {
	p := len(x)
	if j != p-1 {
		return fanInF(x[j])
	}
	sum := 0.0
	for k := 0; k < p-1; k++ {
		sum += fanInF(x[k])
	}
	return 0.7*fanInF(x[j]) + 0.3*sum/float64(p-1)
}

func (a *fanIn) InitLocal() []float64 { return []float64{fanInInit(a.pid, a.p)} }

func (a *fanIn) Compute(view [][]float64, t int) []float64 {
	x := make([]float64, a.p)
	for k := range x {
		if view[k] != nil {
			x[k] = view[k][0]
		}
	}
	a.out[0] = fanInStep(x, a.pid)
	return a.out[:]
}

// The sources pace the run at 0.75 s an iteration; the sink computes in 0.5 s
// and repairs or cascades in 0.25 s, so it keeps up only if a wrong guess
// costs it one recompute.
func (a *fanIn) ComputeOps() float64 {
	if a.pid != a.p-1 {
		return 750
	}
	return 500
}

func (a *fanIn) Check(peer int, pred, act, local []float64, t int) CheckResult {
	return RelErrCheck(0, 1, pred, act)
}

func (a *fanIn) RepairOps(CheckResult) float64 { return 250 }

func TestCascadeComputesOnWhatHasArrived(t *testing.T) {
	// Latency (0.25 s) below one compute (0.5 s), zero tolerance: every
	// prediction is wrong, and every actual is in the inbox by the time a
	// cascade reaches its iteration.
	t.Run("two computes per iteration whatever FW", func(t *testing.T) {
		for _, p := range []int{2, 4} {
			for _, fw := range []int{2, 3, 4} {
				run := func() ([]Result, []byte) {
					jr := obs.NewJournal()
					cc := uniformCluster(p, 0.25)
					cc.Seed, cc.Journal = 5, jr
					results := runCoupled(t, cc, Config{FW: fw, MaxIter: cascadeIters, Journal: jr}, 0)
					var b bytes.Buffer
					if err := jr.WriteJSONL(&b); err != nil {
						t.Fatal(err)
					}
					return results, b.Bytes()
				}
				results, journal := run()
				for _, r := range results {
					s := r.Stats
					// The parent reads FW + 0.9 here (2.90, 3.80, 4.67).
					if c := computesPerIter(s); c > 2.0 {
						t.Errorf("P=%d FW=%d proc %d: %.3f computes per iteration (%d repairs, %d cascade redos over %d), want <= 2",
							p, fw, r.Proc, c, s.Repairs, s.CascadeRedos, s.Iters)
					}
					if s.SpecsSuperseded == 0 || s.SpecsMade != s.SpecsChecked+s.SpecsSuperseded {
						t.Errorf("P=%d FW=%d proc %d: made %d, checked %d, superseded %d", p, fw, r.Proc,
							s.SpecsMade, s.SpecsChecked, s.SpecsSuperseded)
					}
				}
				if _, again := run(); !bytes.Equal(journal, again) {
					t.Errorf("P=%d FW=%d: two seeded runs wrote different journals", p, fw)
				}
			}
		}
	})

	t.Run("exact on a graph where no speculative value is sent", func(t *testing.T) {
		for _, p := range []int{2, 4} {
			want := make([]float64, p)
			for j := range want {
				want[j] = fanInInit(j, p)
			}
			for it := 0; it < cascadeIters; it++ {
				next := make([]float64, p)
				for j := range next {
					next[j] = fanInStep(want, j)
				}
				want = next
			}
			for _, fw := range []int{2, 3, 4} {
				results, err := RunCluster(uniformCluster(p, 0.25),
					Config{FW: fw, MaxIter: cascadeIters},
					func(pr *cluster.Proc) App { return &fanIn{pid: pr.ID(), p: p} })
				if err != nil {
					t.Fatal(err)
				}
				for j, r := range results {
					if math.Float64bits(r.Final[0]) != math.Float64bits(want[j]) {
						t.Errorf("P=%d FW=%d rank %d: final %v, serial reference %v", p, fw, j, r.Final[0], want[j])
					}
				}
				sink := results[p-1].Stats
				if sink.SpecsSuperseded == 0 || sink.SpecsBad != sink.SpecsChecked {
					t.Errorf("P=%d FW=%d sink: superseded %d, bad %d of %d checked — the run did not exercise the rule",
						p, fw, sink.SpecsSuperseded, sink.SpecsBad, sink.SpecsChecked)
				}
				if c := computesPerIter(sink); c > 2.0 {
					t.Errorf("P=%d FW=%d sink: %.3f computes per iteration, want <= 2", p, fw, c)
				}
			}
		}
	})

	// The complement: latency above FW computes, so when a check fails no
	// later actual can have arrived and the cascade is exactly the parent's.
	// FW=2 only: deeper windows bunch their sends (a peer's own cascade holds
	// its next broadcasts back, then releases them together), so even at a
	// long latency a later actual is sometimes already in the inbox — the
	// scripted transport below covers those windows.
	//
	// This run's speculative values leave the map's basin and overflow to
	// −Inf. Repairs and redos were 42 / 42 and 68 / 68 while RelErrCheck took
	// any finite guess for a −Inf actual (its bound is 0·∞ = NaN, and nothing
	// is greater than NaN); now that a NaN fails the check those guesses are
	// repaired. Finals and predictions made are the parent's.
	t.Run("nothing arrived, nothing changed", func(t *testing.T) {
		for _, tc := range []struct {
			p    int
			want [4]uint64 // parent: finals hash, predictions made, repairs, cascade redos
		}{
			{2, [4]uint64{8956480065016300373, 58, 58, 56}},
			{4, [4]uint64{2228081188715380101, 348, 116, 112}},
		} {
			results := runCoupled(t, uniformCluster(tc.p, 1.3), Config{FW: 2, MaxIter: cascadeIters}, 0)
			agg := Aggregate(results)
			got := [4]uint64{finalsHash(results), uint64(agg.SpecsMade), uint64(agg.Repairs), uint64(agg.CascadeRedos)}
			if got != tc.want || agg.SpecsSuperseded != 0 || agg.SpecsChecked != agg.SpecsMade {
				t.Errorf("P=%d: {finals hash, made, repairs, cascade redos} = %v, parent %v; superseded %d, checked %d",
					tc.p, got, tc.want, agg.SpecsSuperseded, agg.SpecsChecked)
			}
		}
	})

	// An actual that lands after its iteration was cascaded but before it is
	// validated supersedes nothing: the prediction is kept and checked. The
	// transport below delivers X_k(s) exactly there — hidden from every poll
	// until the cascade has redone s — so at FW=2, where an iteration is
	// cascaded once, the rule never fires and the run must be the one the
	// parent makes over the same transport, count for count and bit for bit.
	// (At FW >= 3 the next failed check cascades s again, and by then the
	// actual is rightly visible.)
	t.Run("arrived after the cascade: kept and checked", func(t *testing.T) {
		for _, tc := range []struct {
			p    int
			want [4]uint64 // parent over lateTransport, as above
		}{
			{2, [4]uint64{14816216390957366798, 58, 58, 56}},
			{4, [4]uint64{13825334406875239959, 348, 116, 112}},
		} {
			c := cluster.New(uniformCluster(tc.p, 0.25))
			results := make([]Result, tc.p)
			c.Start(func(p *cluster.Proc) {
				app := &coupledMap{p: p, r: 3.2, eps: 0.3, computeOp: 500, repairOp: 250}
				tr := &lateTransport{Proc: p, through: -1}
				res, err := Run(tr, &cascadeMarker{App: app, tr: tr, computed: -1},
					Config{FW: 2, MaxIter: cascadeIters})
				if err != nil {
					t.Errorf("proc %d: %v", p.ID(), err)
				}
				results[p.ID()] = res
			})
			if err := c.Run(); err != nil {
				t.Fatal(err)
			}
			agg := Aggregate(results)
			got := [4]uint64{finalsHash(results), uint64(agg.SpecsMade), uint64(agg.Repairs), uint64(agg.CascadeRedos)}
			if got != tc.want || agg.SpecsSuperseded != 0 || agg.SpecsChecked != agg.SpecsMade {
				t.Errorf("P=%d: {finals hash, made, repairs, cascade redos} = %v, parent %v; superseded %d, checked %d",
					tc.p, got, tc.want, agg.SpecsSuperseded, agg.SpecsChecked)
			}
		}
	})
}

// lateTransport is the simulated processor with one scripted delay: a poll
// does not see the data of an iteration above through, the highest iteration
// a repair or cascade has recomputed so far (cascadeMarker keeps it). A
// blocking receive — the engine needs something it does not have — releases
// what was held back, oldest first.
type lateTransport struct {
	*cluster.Proc
	through int
	held    []cluster.Message
}

func (l *lateTransport) TryRecv(src, tag int) (cluster.Message, bool) {
	for {
		m, ok := l.Proc.TryRecv(src, tag)
		if !ok {
			break
		}
		l.held = append(l.held, m)
	}
	for i, m := range l.held {
		if m.Tag != DataTag || m.Iter <= l.through {
			l.held = append(l.held[:i], l.held[i+1:]...)
			return m, true
		}
	}
	return cluster.Message{}, false
}

func (l *lateTransport) Recv(src, tag int) cluster.Message {
	if len(l.held) > 0 {
		m := l.held[0]
		l.held = l.held[1:]
		return m
	}
	return l.Proc.Recv(src, tag)
}

// cascadeMarker wraps the app to tell the transport how far recomputation
// has got: a second compute of an iteration is a repair or a cascade, the
// only recomputes in this test. The engine polls for iteration s before it
// redoes s, so X_k(s) becomes visible just after s was redone.
type cascadeMarker struct {
	App
	tr       *lateTransport
	computed int // highest iteration computed so far
}

func (m *cascadeMarker) Compute(view [][]float64, t int) []float64 {
	if t <= m.computed {
		m.tr.through = max(m.tr.through, t)
	} else {
		m.computed = t
	}
	return m.App.Compute(view, t)
}
