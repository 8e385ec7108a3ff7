package core

// The engine's half of the payload ownership rule (Releaser): it gives back
// every payload it received exactly once, never one the transport did not
// lend, and only when it references the payload nowhere — not in the stash,
// not in the history ring, not in a view, a prediction or a checkpoint.
// lendingProc is the simulator dressed as a lending transport, so the
// seeded, byte-exact scenarios check the rule.

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"specomp/internal/cluster"
)

// lendingProc copies every payload the simulator delivers into a row of its
// own and takes the row back through Release, NaN-filling it there: an
// engine that still reads a released row computes on NaN and leaves the
// seeded run. A double release, or the release of a row it never lent, fails
// the test at once.
type lendingProc struct {
	*cluster.Proc
	t testing.TB
	// out maps each lent row to whether it is still out.
	out map[*float64]bool
}

// The wrapper hides none of the capabilities the engine probes for.
var _ interface {
	Transport
	DeadlineReceiver
	Releaser
	FailureDetector
	Epocher
	NetStatser
} = (*lendingProc)(nil)

func newLendingProc(t testing.TB, p *cluster.Proc) *lendingProc {
	return &lendingProc{Proc: p, t: t, out: make(map[*float64]bool)}
}

func (lp *lendingProc) lend(m cluster.Message) cluster.Message {
	if len(m.Data) > 0 {
		row := append([]float64(nil), m.Data...)
		lp.out[&row[0]] = true
		m.Data = row
	}
	return m
}

func (lp *lendingProc) TryRecv(src, tag int) (cluster.Message, bool) {
	m, ok := lp.Proc.TryRecv(src, tag)
	return lp.lend(m), ok
}

func (lp *lendingProc) Recv(src, tag int) cluster.Message {
	return lp.lend(lp.Proc.Recv(src, tag))
}

func (lp *lendingProc) RecvDeadline(src, tag int, timeout float64) (cluster.Message, bool) {
	m, ok := lp.Proc.RecvDeadline(src, tag, timeout)
	return lp.lend(m), ok
}

func (lp *lendingProc) Release(data []float64) {
	if len(data) == 0 {
		lp.t.Errorf("proc %d released an empty payload", lp.ID())
		return
	}
	out, lent := lp.out[&data[0]]
	switch {
	case !lent:
		lp.t.Errorf("proc %d released a payload it was never lent", lp.ID())
	case !out:
		lp.t.Errorf("proc %d released a payload twice", lp.ID())
	}
	lp.out[&data[0]] = false
	for i := range data {
		data[i] = math.NaN()
	}
}

// live counts the rows lent and not yet released.
func (lp *lendingProc) live() int {
	n := 0
	for _, out := range lp.out {
		if out {
			n++
		}
	}
	return n
}

// runLending is RunCluster with every incarnation of every processor on a
// lendingProc of its own (a crash abandons the old incarnation's rows).
func runLending(t testing.TB) func(cluster.Config, Config, Factory) ([]Result, error) {
	return func(cc cluster.Config, cfg Config, factory Factory) ([]Result, error) {
		c := cluster.New(cc)
		results := make([]Result, c.P())
		c.Start(func(p *cluster.Proc) {
			res, err := Run(newLendingProc(t, p), factory(p), cfg)
			if err != nil {
				t.Errorf("proc %d: %v", p.ID(), err)
			}
			results[p.ID()] = res
		})
		return results, c.Run()
	}
}

// TestLendingGoldenJournals: through a lending transport, every golden
// scenario — the cascade, the deadline overruns and the crash with its
// restore, rejoins and catch-up — writes its committed fixture byte for
// byte.
func TestLendingGoldenJournals(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			got := goldenJournal(t, tc, nil, runLending(t))
			want, err := os.ReadFile(filepath.Join("testdata", "journal_"+tc.name+".jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("lending run diverged from fixture: got %d bytes, want %d", len(got), len(want))
			}
		})
	}
}

// TestLendingUnderCrashRecovery: the crash/restore/rejoin/catch-up run of
// TestMemoryBoundUnderCrashRecovery on a lending transport equals the run
// on the plain simulator — finals to the bit, every statistic — and at
// every retire the rows still out fit in the stash and history lanes.
func TestLendingUnderCrashRecovery(t *testing.T) {
	cc, cfg := crashRecoveryScenario()
	plain := runCoupled(t, cc, cfg, 0.02)

	worst := 0
	testRetireHook = func(e *engine, _ int) {
		limit := 0
		for i := range e.plane.peers {
			limit += e.plane.peers[i].ring.Cap() + e.plane.hist[i].Cap()
		}
		if n := e.p.(*lendingProc).live(); n > limit {
			t.Fatalf("proc %d holds %d lent rows, lanes hold at most %d", e.p.ID(), n, limit)
		} else if n > worst {
			worst = n
		}
	}
	defer func() { testRetireHook = nil }()
	cc, cfg = crashRecoveryScenario()
	lent, err := runLending(t)(cc, cfg, func(p *cluster.Proc) App {
		return &coupledMap{p: p, r: 3.2, eps: 0.3, threshold: 0.02, computeOp: 500, repairOp: 250}
	})
	if err != nil {
		t.Fatal(err)
	}
	if Aggregate(lent).Restores == 0 {
		t.Fatal("scenario exercised no restores")
	}
	for i := range plain {
		p, l := plain[i], lent[i]
		if p.Stats != l.Stats {
			t.Errorf("proc %d: stats %+v on the lending transport, %+v on the simulator", i, l.Stats, p.Stats)
		}
		if len(p.Final) != len(l.Final) {
			t.Fatalf("proc %d: final has %d values lent, %d plain", i, len(l.Final), len(p.Final))
		}
		for j := range p.Final {
			if math.Float64bits(p.Final[j]) != math.Float64bits(l.Final[j]) {
				t.Errorf("proc %d value %d: %v lent, %v plain", i, j, l.Final[j], p.Final[j])
			}
		}
	}
	t.Logf("worst lent rows held at a retire: %d", worst)
}

// TestPlaneGivesBackOnceBothHoldersDropped drives the value plane through
// the two orders in which the stash and the history ring let go of one
// buffer. The engine's scenarios above only ever meet the second: the stash
// floor trails the history by the lookback, so the stash drops a history-held
// buffer only while a catch-up gap stalls the history.
func TestPlaneGivesBackOnceBothHoldersDropped(t *testing.T) {
	released := make(map[*float64]int)
	vp := newValuePlane(0, 2, 2, 4, 4, []int{1})
	vp.release = func(d []float64) { released[&d[0]]++ }
	row := func(v float64) []float64 { return []float64{v} }
	once := func(what string, d []float64, want int) {
		t.Helper()
		if got := released[&d[0]]; got != want {
			t.Errorf("%s: released %d times, want %d", what, got, want)
		}
	}

	// The stash drops it first: the history, stalled by a gap, still holds
	// iteration 0 when the floor has passed it and iteration 4 takes its slot.
	r0 := row(0)
	vp.stash(1, 0, r0)
	vp.pushHistory(1, 0, r0)
	vp.advanceFloors(20, 2)
	vp.stash(1, 4, row(4))
	once("history-held buffer dropped by the stash", r0, 0)
	r21, r22 := row(21), row(22)
	vp.stash(1, 21, r21)
	vp.pushHistory(1, 21, r21)
	vp.stash(1, 22, r22)
	vp.pushHistory(1, 22, r22)
	once("buffer the history then pushed out", r0, 1)

	// The history drops it first: the stash still holds iteration 21 when
	// the history pushes it out, and gives it back when its slot is taken.
	r23 := row(23)
	vp.stash(1, 23, r23)
	vp.pushHistory(1, 23, r23)
	once("stash-held buffer pushed out of the history", r21, 0)
	vp.advanceFloors(40, 2)
	vp.stash(1, 25, row(25)) // slot of 21
	once("buffer the stash then dropped", r21, 1)

	// A duplicate goes straight back, and so does a rank with no in-edge.
	dup := row(23)
	vp.stash(1, 23, dup)
	once("first-wins duplicate", dup, 1)
	stray := row(0)
	vp.stash(0, 0, stray)
	once("payload from a rank with no in-edge", stray, 1)
}
