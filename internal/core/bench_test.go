package core

// Engine micro-benchmarks and the memory/allocation invariants of the
// pooled value plane. The phantom transport synthesizes peer messages on
// demand from pre-allocated rotating buffers following exactly linear
// trajectories, so predict.Linear extrapolates them perfectly and the
// engine stays on the clean steady-state speculation path — what
// BenchmarkEngineIteration measures is pure engine bookkeeping (assemble,
// speculate, validate, retire) with zero repairs and, after warm-up, zero
// allocations per iteration.

import (
	"fmt"
	"runtime"
	"testing"

	"specomp/internal/checkpoint"
	"specomp/internal/cluster"
	"specomp/internal/faults"
	"specomp/internal/netmodel"
)

// peerValue is the linear per-element trajectory each phantom peer follows.
// Linear in the iteration, so a linear predictor's extrapolation error is
// at rounding level — far below any check threshold.
func peerValue(peer, iter, j int) float64 {
	return float64(peer+1) + 0.001*float64(iter) + 0.0001*float64(j)
}

// phantom is a single-processor Transport that impersonates np-1 peers:
// TryRecv never has anything (the engine always speculates), and Recv
// synthesizes the next outstanding peer message on demand, round-robin
// across peers, one iteration depth at a time. Messages are backed by a
// fixed rotation of buffers per peer, so Recv never allocates.
type phantom struct {
	id, np int
	depth  int   // iteration level currently being delivered
	cursor int   // next peer (index into peers) to deliver at this depth
	peers  []int // peer ids, excluding self
	bufs   [][][]float64
	rot    []int
}

func newPhantom(np, n int) *phantom {
	ph := &phantom{id: 0, np: np}
	for k := 1; k < np; k++ {
		ph.peers = append(ph.peers, k)
		rot := make([][]float64, 16)
		for i := range rot {
			rot[i] = make([]float64, n)
		}
		ph.bufs = append(ph.bufs, rot)
	}
	ph.rot = make([]int, np-1)
	return ph
}

func (ph *phantom) ID() int                              { return ph.id }
func (ph *phantom) P() int                               { return ph.np }
func (ph *phantom) Now() float64                         { return 0 }
func (ph *phantom) Compute(ops float64, p cluster.Phase) {}
func (ph *phantom) Send(dst, tag, iter int, d []float64) {}
func (ph *phantom) PhaseTime(p cluster.Phase) float64    { return 0 }

func (ph *phantom) TryRecv(src, tag int) (cluster.Message, bool) {
	return cluster.Message{}, false
}

func (ph *phantom) Recv(src, tag int) cluster.Message {
	i := ph.cursor
	peer := ph.peers[i]
	buf := ph.bufs[i][ph.rot[i]]
	ph.rot[i] = (ph.rot[i] + 1) % len(ph.bufs[i])
	for j := range buf {
		buf[j] = peerValue(peer, ph.depth, j)
	}
	m := cluster.Message{Src: peer, Dst: ph.id, Tag: DataTag, Iter: ph.depth, Data: buf}
	ph.cursor++
	if ph.cursor == len(ph.peers) {
		ph.cursor, ph.depth = 0, ph.depth+1
	}
	return m
}

// benchApp is an allocation-free App: Compute averages the view into a
// reused output buffer (the plane copies it, so reuse is safe).
type benchApp struct{ out []float64 }

func newBenchApp(n int) *benchApp { return &benchApp{out: make([]float64, n)} }

func (a *benchApp) InitLocal() []float64 {
	init := make([]float64, len(a.out))
	for j := range init {
		init[j] = peerValue(0, 0, j)
	}
	return init
}

func (a *benchApp) Compute(view [][]float64, t int) []float64 {
	out := a.out
	inv := 1.0 / float64(len(view))
	for j := range out {
		s := 0.0
		for _, row := range view {
			s += row[j]
		}
		out[j] = s * inv
	}
	return out
}

func (a *benchApp) ComputeOps() float64 { return 1 }

func (a *benchApp) Check(peer int, pred, act, local []float64, t int) CheckResult {
	return RelErrCheck(0.05, 1, pred, act)
}

func (a *benchApp) RepairOps(r CheckResult) float64 { return 1 }

// specBenchApp is benchApp with its own speculation function: the same
// linear extrapolation predict.Linear makes, written into the engine's dst.
type specBenchApp struct{ *benchApp }

func (a specBenchApp) SpeculateInto(dst []float64, peer int, hist [][]float64, steps int) float64 {
	copy(dst, hist[0])
	if len(hist) > 1 {
		for j := range dst {
			dst[j] += float64(steps) * (hist[0][j] - hist[1][j])
		}
	}
	return float64(len(dst))
}

// BenchmarkEngineIteration measures one engine iteration (broadcast,
// assemble+speculate, compute, validate, retire) on the phantom transport.
// allocs/op must be 0 at FW>0: the steady-state speculation path draws
// every buffer from the plane's pools.
func BenchmarkEngineIteration(b *testing.B) {
	const n = 64
	for _, fw := range []int{0, 2, 4} {
		for _, np := range []int{4, 16} {
			b.Run(fmt.Sprintf("FW%d/P%d", fw, np), func(b *testing.B) {
				ph := newPhantom(np, n)
				app := newBenchApp(n)
				b.ReportAllocs()
				b.ResetTimer()
				res, err := Run(ph, app, Config{FW: fw, MaxIter: b.N})
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				if res.Stats.Repairs != 0 {
					b.Fatalf("benchmark left the clean path: %d repairs", res.Stats.Repairs)
				}
			})
		}
	}
	// kernel-heat's shape: a 512×512 strip (2 MB) publishing two 512-value
	// edge rows, FW 0. lent computes into the value plane's slot; copied is
	// the same app without ComputerInto, whose result the plane copies — the
	// difference is one 2 MB copy per iteration.
	for _, lend := range []bool{true, false} {
		b.Run(fmt.Sprintf("Strip512x512/%s", map[bool]string{true: "lent", false: "copied"}[lend]), func(b *testing.B) {
			app := stripAs(newStripApp(512*512, 2*512), lend)
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := Run(newPhantom(2, 2*512), app, Config{MaxIter: b.N}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// TestSteadyStateZeroAlloc proves the speculation hot path allocates
// nothing: on an engine frozen mid-run, one more iteration (broadcast,
// assemble+speculate, compute, validate, retire) reads 0 allocations, with
// the app's result copied into the value plane and with the plane's slot lent
// to a strip-shaped app (64 Ki values). testing.AllocsPerRun averages over
// 100 iterations, so a goroutine left behind by another test cannot put a
// stray malloc into the count.
func TestSteadyStateZeroAlloc(t *testing.T) {
	testSteadyIterations(t, 100, func() {})
}

// TestPoolSurvivesGC: the value plane's freelists belong to the engine, not
// to the runtime, so a collection between two iterations empties nothing and
// the next iteration still draws every buffer, 64 Ki-value strips included,
// from them. (A sync.Pool is cleared by the GC; two collections clear its
// victim cache too.)
func TestPoolSurvivesGC(t *testing.T) {
	testSteadyIterations(t, 20, func() { runtime.GC(); runtime.GC() })
}

// testSteadyIterations freezes an engine mid-run for each steady-state shape
// and asserts that `runs` more iterations, each after a call to between,
// allocate nothing beyond what between allocates on its own. (A collection
// wakes the runtime's own cleanup goroutines, and what they allocate lands in
// the same process-wide count.)
func testSteadyIterations(t *testing.T, runs int, between func()) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; exact malloc counts are meaningless")
	}
	for _, c := range []struct {
		name string
		ph   *phantom
		app  App
		cfg  Config
	}{
		{"copied/mean64-P4-FW2", newPhantom(4, 64), newBenchApp(64), Config{FW: 2}},
		// The app's Speculator writes into a pool buffer the engine recycles.
		{"copied/mean64-P4-FW2-speculator", newPhantom(4, 64), specBenchApp{newBenchApp(64)}, Config{FW: 2}},
		{"lent/strip64Ki-P2-FW2", newPhantom(2, 2*256), stripAs(newStripApp(256*256, 2*256), true), Config{FW: 2}},
		{"lent/strip64Ki-P2-FW0", newPhantom(2, 2*256), stripAs(newStripApp(256*256, 2*256), true), Config{}},
		// Checkpointing: every broadcast is logged for rejoins (a pool copy,
		// the entry pushed out going back), every fifth iteration snapshots.
		{"copied/mean64-P4-FW2-checkpoint", newPhantom(4, 64), newBenchApp(64),
			Config{FW: 2, CheckpointEvery: 5, CheckpointStore: discardStore{}}},
	} {
		e := frozenEngine(t, c.ph, c.app, c.cfg, 80)
		step := func() {
			between()
			e.iterate(e.frontier + 1)
		}
		step()
		alone := testing.AllocsPerRun(runs, between)
		if n := testing.AllocsPerRun(runs, step) - alone; n != 0 {
			t.Errorf("%s: a steady-state iteration allocates %v times", c.name, n)
		}
	}
}

// TestMemoryBoundUnderCrashRecovery asserts the plane's retention invariant
// on a long run with crashes, restores, rejoins and catch-up: after every
// retire, the number of snapshots held per peer (and of per-iteration
// own/view/prediction rows) stays within the fixed lane capacities — memory
// use is f(FW, BW), independent of MaxIter.
func TestMemoryBoundUnderCrashRecovery(t *testing.T) {
	worstPeer, worstIter := 0, 0
	testRetireHook = func(e *engine, _ int) {
		for k := range e.plane.peers {
			l := &e.plane.peers[k]
			if got := l.retained(); got > l.ring.Cap() {
				t.Fatalf("in-edge %d retains %d snapshots, cap %d", k, got, l.ring.Cap())
			} else if got > worstPeer {
				worstPeer = got
			}
		}
		for _, l := range []*lane[[][]float64]{&e.plane.views, &e.plane.preds} {
			if got := l.retained(); got > l.ring.Cap() {
				t.Fatalf("iteration lane retains %d rows, cap %d", got, l.ring.Cap())
			} else if got > worstIter {
				worstIter = got
			}
		}
		if got := e.plane.own.retained(); got > e.plane.own.ring.Cap() {
			t.Fatalf("own lane retains %d entries, cap %d", got, e.plane.own.ring.Cap())
		}
	}
	defer func() { testRetireHook = nil }()

	cc, cfg := crashRecoveryScenario()
	results := runCoupled(t, cc, cfg, 0.02)
	if Aggregate(results).Restores == 0 {
		t.Fatal("scenario exercised no restores")
	}
	if worstPeer == 0 || worstIter == 0 {
		t.Fatal("retire hook observed nothing")
	}
	t.Logf("worst per-peer retention %d, worst iteration-lane retention %d", worstPeer, worstIter)
}

// crashRecoveryScenario is a long coupled-map run on four processors with
// two crashes: checkpoints, restores, rejoins and catch-up, on a fresh store.
func crashRecoveryScenario() (cluster.Config, Config) {
	cc := cluster.Config{
		Machines:     cluster.UniformMachines(4, 1000),
		Net:          netmodel.Fixed{D: 0.02},
		Reliable:     true,
		RetryTimeout: 0.5,
		Crashes: faults.CrashSchedule{
			{Proc: 1, At: 8, Downtime: 3},
			{Proc: 2, At: 25, Downtime: 3},
		},
	}
	cfg := Config{
		FW:              2,
		MaxIter:         300,
		Deadline:        0.3,
		CheckpointEvery: 5,
		CheckpointStore: checkpoint.NewMemStore(),
		CheckpointOps:   50,
	}
	return cc, cfg
}

// discardStore is stable storage that keeps nothing.
type discardStore struct{}

func (discardStore) Save(int, []byte)        {}
func (discardStore) Load(int) ([]byte, bool) { return nil, false }

// stripApp has heat's shape on the phantom transport at P = 2: the partition
// is n values long but only its first len(pub) travel (Publisher), so a
// snapshot holds a few long Own vectors beside many short logged broadcasts.
// Its kernel averages each pub-sized run of the strip with the peer's
// payload: a stencil's memory traffic without its arithmetic. n must be a
// multiple of len(pub).
type stripApp struct {
	n   int
	pub []float64
	out ResultBuf
}

func newStripApp(own, edge int) *stripApp {
	return &stripApp{n: own, pub: make([]float64, edge)}
}

func (a *stripApp) InitLocal() []float64 {
	init := make([]float64, a.n)
	for j := range init {
		init[j] = peerValue(0, 0, j%len(a.pub))
	}
	return init
}

func (a *stripApp) Publish(local []float64) []float64 {
	copy(a.pub, local)
	return a.pub
}

func (a *stripApp) Compute(view [][]float64, t int) []float64 { return a.out.Compute(a, view, 0, t) }

func (a *stripApp) ComputeInto(dst []float64, view [][]float64, t int) {
	peer := view[1]
	for i := 0; i < len(dst); i += len(peer) {
		own, out := view[0][i:i+len(peer)], dst[i:i+len(peer)]
		for j, v := range peer {
			out[j] = 0.5 * (own[j] + v)
		}
	}
}

func (a *stripApp) ComputeOps() float64 { return 1 }

func (a *stripApp) Check(peer int, pred, act, local []float64, t int) CheckResult {
	return RelErrCheck(0.05, 1, pred, act)
}

func (a *stripApp) RepairOps(r CheckResult) float64 { return 1 }

// stripAs presents a stripApp to the engine with the lent slot (lend) or as
// an app without ComputerInto, whose results the value plane copies.
func stripAs(a *stripApp, lend bool) App {
	if lend {
		return a
	}
	return struct {
		App
		Publisher
	}{a, a}
}

// frozenEngine runs app on tr and freezes the engine mid-run — right after
// iteration `at` retired, which is the end of a loop iteration when nothing
// else was pending, with FW later iterations still resting on predictions —
// by unwinding out of the retire hook. The returned engine runs further
// iterations on demand (iterate).
func frozenEngine(tb testing.TB, tr Transport, app App, cfg Config, at int) (e *engine) {
	tb.Helper()
	type frozen struct{}
	testRetireHook = func(en *engine, t int) {
		if t == at {
			e = en
			panic(frozen{})
		}
	}
	defer func() {
		testRetireHook = nil
		if r := recover(); r != nil {
			if _, ok := r.(frozen); !ok {
				panic(r)
			}
		}
	}()
	cfg.MaxIter = at + 100
	_, err := Run(tr, app, cfg)
	tb.Fatalf("run ended before iteration %d retired (err %v)", at, err)
	return nil
}

// midRunEngine freezes a stripApp engine at FW with checkpoints every five
// iterations into store and the rejoin log full. The returned engine takes
// checkpoints on demand.
func midRunEngine(tb testing.TB, own, edge, fw, at int, store checkpoint.Store) *engine {
	tb.Helper()
	return frozenEngine(tb, newPhantom(2, edge), newStripApp(own, edge),
		Config{FW: fw, CheckpointEvery: 5, CheckpointStore: store}, at)
}

// BenchmarkTakeCheckpoint measures one checkpoint on the engine's side of
// the store — assemble the snapshot out of the value plane, encode it, hand
// it to a store that discards it — at the two shapes the repo benchmark
// checkpoints (svc-jobs' heat 48×32 strip under FW 2, kernel-heat's
// 1024×512 strip). Steady state must read 0 allocs/op.
func BenchmarkTakeCheckpoint(b *testing.B) {
	for _, sh := range []struct {
		name          string
		own, edge, fw int
	}{
		{"heat48x32-P2-FW2", 24 * 32, 2 * 32, 2},
		{"heat1024x512-P2", 512 * 512, 2 * 512, 0},
	} {
		b.Run(sh.name, func(b *testing.B) {
			e := midRunEngine(b, sh.own, sh.edge, sh.fw, 80, discardStore{})
			e.takeCheckpoint()
			b.SetBytes(e.stats.CheckpointBytes / int64(e.stats.Checkpoints))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.takeCheckpoint()
			}
		})
	}
}
