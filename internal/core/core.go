// Package core implements the paper's primary contribution: speculative
// computation for synchronous iterative algorithms.
//
// A synchronous iterative algorithm evaluates X(t+1) = F(X(t)) with the
// variable set X partitioned over p processors; each iteration every
// processor broadcasts its partition and waits for every other partition
// before computing (Figure 1 of the paper). With speculation (Figure 3), a
// processor instead *predicts* the contents of messages that have not yet
// arrived, computes on the predictions, and validates them when the real
// messages arrive — masking communication latency with useful work.
//
// The engine supports:
//
//   - FW (forward window): how many iterations may rest on unvalidated
//     speculated inputs. FW=0 is the classical blocking algorithm; FW=1 is
//     Figure 3; FW≥2 pipelines further ahead (Figure 4).
//   - BW (backward window): how many past snapshots the speculation function
//     consults, via the predict.Predictor or an app-supplied Speculator.
//   - Error checking and repair: when a prediction fails its tolerance
//     check, the engine recomputes the affected iteration from the actual
//     values (charging the app-defined repair cost), and cascades the
//     recomputation through any later speculatively computed iterations.
//
// The package is layered (see DESIGN.md §8): this file is the iteration
// state machine, including the three decisions the paper leaves to the
// application, each taken from one place — speculation from the app's
// Speculator or Config.Predictor, the check from App.Check, repair from the
// app's Corrector or a recompute; every payload lives in the pooled,
// ring-indexed value plane (store.go, pool.go); the application contract is
// app.go; the dependency graph is graph.go; the crash-recovery protocol is
// recover.go.
package core

import (
	"fmt"

	"specomp/internal/checkpoint"
	"specomp/internal/cluster"
	"specomp/internal/history"
	"specomp/internal/obs"
	"specomp/internal/predict"
)

// Message tags used by the engine. DataTag carries partition exchanges;
// RejoinTag and RejoinAckTag carry the crash-recovery protocol (recover.go).
const (
	DataTag      = 1
	RejoinTag    = 2 // rejoin/refill request: Iter = highest iteration held
	RejoinAckTag = 3 // response: Iter = responder frontier, Data[0] = oldest re-sendable iter
)

// Transport is what the engine needs from an execution substrate. Three
// backends implement it, each with the optional extensions below:
// *cluster.Proc against virtual time, the realtime package over goroutines
// in one process, and the distnet package over OS processes and TCP sockets.
// Compute charges work to the substrate's clock — a no-op for wall-clock
// substrates, where the work happens inside the app itself.
//
// The engine receives only (cluster.Any, cluster.Any), and every backend
// panics on any other selector (cluster.MustAny). The (src, tag) parameters
// remain only because the benchmark harness calls the methods with them.
//
// Delivery rule on the wall-clock transports: a message is in the
// receiver's inbox the moment it arrives and becomes visible Message.Hold
// seconds later by the receiver's clock, however busy either side is — an
// injected delay is owed at the receiver (internal/inbox). The simulator
// delivers when its network model says and never sets Hold.
//
// Ownership rule: Send borrows its payload — the transport copies what it
// needs before Send returns, so the caller may overwrite the slice at once. A
// delivered Message.Data is the receiver's to read for as long as it likes;
// a Releaser lends it and takes it back, and the engine hands every received
// payload back through Release once it references it nowhere.
//
// Flush rule: a transport may coalesce several sent messages into one
// physical frame (distnet batches per-iteration sends to the same peer),
// provided messages owed equal holds keep their per-(src, dst) order. To
// that end it may defer a Send until the caller next polls empty, blocks in
// a receive, or returns — never past that: what the caller does next may be
// a long compute, and a peer may be waiting on exactly that message.
type Transport interface {
	ID() int
	P() int
	Now() float64
	Compute(ops float64, ph cluster.Phase)
	Send(dst, tag, iter int, data []float64)
	TryRecv(src, tag int) (cluster.Message, bool)
	Recv(src, tag int) cluster.Message
	PhaseTime(ph cluster.Phase) float64
}

var _ Transport = (*cluster.Proc)(nil)

// DeadlineReceiver is an optional Transport extension providing a receive
// bounded by a timeout (in the transport's time unit). ok=false means the
// deadline elapsed with no matching message. The engine requires it for
// graceful degradation (Config.Deadline); transports without it fall back
// to blocking receives.
type DeadlineReceiver interface {
	RecvDeadline(src, tag int, timeout float64) (cluster.Message, bool)
}

var _ DeadlineReceiver = (*cluster.Proc)(nil)

// Releaser is an optional Transport extension for transports that lend the
// payloads they deliver: the engine calls Release with each received
// Message.Data once it holds no reference to it, and the transport may then
// reuse the buffer for a later delivery. A transport that can deliver one
// buffer twice (the simulator's duplicates) must not implement it.
type Releaser interface {
	Release(data []float64)
}

// NetStatser is an optional Transport extension exposing transport-level
// counters (retransmissions, duplicate suppressions); the engine copies
// them into Stats.Net at the end of a run.
type NetStatser interface {
	NetStats() cluster.NetStats
}

// Config parameterizes an engine run.
type Config struct {
	// FW is the forward window. 0 disables speculation entirely.
	FW int
	// BW is the backward window: depth of per-peer history retained for the
	// speculation function. Defaults to max(Predictor.Window(), 2).
	BW int
	// Predictor is the generic speculation function used when the App does
	// not implement Speculator. Defaults to predict.Linear{}.
	Predictor predict.Predictor
	// MaxIter is the number of iterations to execute. Must be >= 1.
	MaxIter int
	// HoldSends, when true with FW >= 2, delays sending a speculatively
	// computed partition until its inputs have been validated (ablation of
	// the "speculative sends" design decision).
	HoldSends bool
	// Deadline, when positive (and FW >= 1), enables graceful degradation:
	// validation stops blocking on an overdue peer after waiting Deadline
	// seconds and instead lets speculation extend past the forward window,
	// reconciling (check + repair + cascade) when the real message finally
	// lands. Zero keeps the classical behaviour of blocking indefinitely.
	// Requires a DeadlineReceiver transport to take effect.
	Deadline float64
	// MaxOverrun bounds how many iterations past the forward window the
	// engine may run on unreconciled speculation before it blocks hard on
	// the overdue peer. Defaults to 2 when Deadline is set.
	MaxOverrun int

	// Metrics, when non-nil, receives the engine's counters, gauges and
	// histograms (per-processor labels). Nil — the default — keeps the
	// engine on a nil-check-only fast path.
	Metrics *obs.Registry
	// Journal, when non-nil, receives the structured run journal: ordered
	// events (iteration start/end, speculation made/checked/bad, repair,
	// cascade, overrun/reconcile, convergence) stamped with the transport's
	// clock. On the simulated cluster the same seed yields a byte-identical
	// journal.
	Journal *obs.Journal

	// CheckpointEvery, when positive, makes the engine snapshot its state to
	// CheckpointStore every K loop iterations and enables the crash-recovery
	// protocol (restore + rejoin + catch-up; see recover.go). Requires a
	// non-nil CheckpointStore.
	CheckpointEvery int
	// CheckpointStore is the stable storage snapshots go to. It must survive
	// the processor's crashes — in the simulation, any store living outside
	// the cluster (checkpoint.MemStore) does.
	CheckpointStore checkpoint.Store
	// CheckpointOps is the operation cost charged to the perf model per
	// snapshot.
	CheckpointOps float64
	// RejoinLog is how many recent own broadcasts are retained to serve
	// peers' rejoin requests. Defaults to 64 when CheckpointEvery > 0. It
	// must comfortably exceed the deepest frontier gap two processors can
	// have (≈ FW+MaxOverrun+MaxCrashOverrun), or a rejoiner hits a catch-up
	// gap and must accept unverifiable speculation for the missing range.
	RejoinLog int
	// MaxCrashOverrun extends MaxOverrun while a needed peer is reported
	// down by the transport's failure detector, letting survivors bridge an
	// outage by speculating deeper past the forward window. Defaults to 6
	// when checkpointing and Deadline are both enabled.
	MaxCrashOverrun int
}

// Stats aggregates one processor's speculation behaviour over a run.
type Stats struct {
	Iters        int
	SpecsMade    int // peer-iteration predictions performed
	SpecsChecked int // predictions validated against actual messages
	SpecsBad     int // validations that exceeded tolerance
	UnitsBad     int64
	UnitsTotal   int64
	Repairs      int // iterations repaired after a failed check
	CascadeRedos int // later iterations recomputed due to an upstream repair
	Overruns     int // validations deferred past a Deadline expiry
	Reconciles   int // overrun iterations later validated against the real message
	// SpecsSuperseded counts predictions a cascade replaced, unchecked, with
	// the actual that had arrived: SpecsMade == SpecsChecked + SpecsSuperseded.
	SpecsSuperseded int

	Checkpoints     int   // state snapshots persisted to stable storage
	CheckpointBytes int64 // total encoded snapshot bytes written
	Restores        int   // post-crash state restorations
	CatchupIters    int   // iterations replayed to re-reach the surviving frontier

	ComputeTime float64
	CommTime    float64
	SpecTime    float64
	CheckTime   float64
	CorrectTime float64
	OverrunTime float64 // compute performed past the forward window (degraded mode)
	TotalTime   float64

	// Net holds transport-level counters (retransmissions, duplicate
	// suppressions) when the transport exposes them; zero otherwise.
	Net cluster.NetStats
}

// BadFraction returns the fraction of validated predictions that exceeded
// tolerance — the measured analogue of the model's k.
func (s Stats) BadFraction() float64 {
	if s.SpecsChecked == 0 {
		return 0
	}
	return float64(s.SpecsBad) / float64(s.SpecsChecked)
}

// UnitBadFraction returns the fraction of individual check units (e.g.
// particle pairs) out of tolerance.
func (s Stats) UnitBadFraction() float64 {
	if s.UnitsTotal == 0 {
		return 0
	}
	return float64(s.UnitsBad) / float64(s.UnitsTotal)
}

// Result is one processor's outcome.
type Result struct {
	Proc  int
	Final []float64 // X_j after the last executed iteration
	// Converged is true when a Stopper terminated the run before MaxIter;
	// Stats.Iters then holds the number of iterations actually executed.
	Converged bool
	Stats     Stats
}

// engine is the per-processor iteration state machine. Payload storage
// lives in the value plane.
type engine struct {
	p   Transport
	app App
	cfg Config

	pub     Publisher        // nil unless app implements it
	into    ComputerInto     // nil unless app implements it
	spec    Speculator       // nil unless app implements it
	corr    Corrector        // nil unless app implements it
	stopper Stopper          // nil unless app implements it
	dr      DeadlineReceiver // nil unless the transport implements it

	// Dependency structure, resolved once at startup (graph.go): inRanks is
	// the sorted list of ranks this processor reads; needsM/neededByM are the
	// O(1) membership masks behind needs()/neededBy().
	inRanks   []int
	needsM    []bool
	neededByM []bool

	stopped  bool // converged early
	stopIter int  // iteration at which Done reported true

	// plane stores every per-iteration payload: stashed actuals, validated
	// history, own results, assembled views and pending predictions.
	plane *valuePlane
	// overrun marks iterations whose validation was deferred past a
	// Deadline expiry and still awaits reconciliation.
	overrun map[int]bool
	// validated is the highest iteration whose inputs are fully validated.
	validated int
	// frontier is the highest iteration whose Compute has run.
	frontier int
	// badScratch backs validateIter's failed-peer list between calls.
	badScratch []int

	// Crash-recovery state (recover.go); all zero/nil when CheckpointEvery
	// is unset.
	store checkpoint.Store
	fd    FailureDetector // nil unless the transport implements it
	ep    Epocher         // nil unless the transport implements it
	// sentLog retains copies of recent own broadcasts (pool buffers) to
	// serve rejoin/refill requests from peers that lost them to a crash.
	sentLog *history.Ring[histEntry]
	// noActualBefore[k] > 0 marks a catch-up gap: no actual snapshot of
	// peer k below that iteration will ever arrive, so speculation for the
	// range is accepted unverified.
	noActualBefore []int
	// postCrashLeft[k] counts down how many upcoming validations of peer k
	// feed the post-crash prediction-error histogram.
	postCrashLeft []int
	// restored / restoreFrontier / catchupTarget track catch-up progress
	// after a restart; catchupTarget is -1 when no catch-up is in flight.
	restored        bool
	restoreFrontier int
	catchupTarget   int
	// snap and ckptBuf are takeCheckpoint's scratch: the snapshot under
	// assembly and the blob it encodes to, both reused between checkpoints.
	snap    checkpoint.Snapshot
	ckptBuf []byte

	// ob is the observability sink; nil when Config.Metrics and
	// Config.Journal are both unset.
	ob *engineObs

	stats Stats
}

// Run executes the synchronous iterative application on transport p —
// a simulated processor (call from within a cluster.Start body) or any
// other Transport implementation. Every processor of the run must use an
// identical Config.
func Run(p Transport, app App, cfg Config) (Result, error) {
	if cfg.MaxIter < 1 {
		return Result{}, fmt.Errorf("core: MaxIter must be >= 1, got %d", cfg.MaxIter)
	}
	if cfg.FW < 0 {
		return Result{}, fmt.Errorf("core: negative FW")
	}
	if cfg.Predictor == nil {
		cfg.Predictor = predict.Linear{}
	}
	if cfg.BW <= 0 {
		cfg.BW = cfg.Predictor.Window()
		if cfg.BW < 2 {
			cfg.BW = 2
		}
	}
	if cfg.Deadline < 0 {
		return Result{}, fmt.Errorf("core: negative Deadline")
	}
	if cfg.Deadline > 0 && cfg.MaxOverrun <= 0 {
		cfg.MaxOverrun = 2
	}
	if cfg.Deadline == 0 {
		cfg.MaxOverrun = 0
	}
	if cfg.CheckpointEvery > 0 {
		if cfg.CheckpointStore == nil {
			return Result{}, fmt.Errorf("core: CheckpointEvery set without a CheckpointStore")
		}
		if cfg.RejoinLog <= 0 {
			cfg.RejoinLog = 64
		}
		if cfg.MaxCrashOverrun <= 0 && cfg.Deadline > 0 {
			cfg.MaxCrashOverrun = 6
		}
	} else {
		cfg.MaxCrashOverrun = 0
	}
	e := &engine{
		p:   p,
		app: app,
		cfg: cfg,

		overrun:       make(map[int]bool),
		validated:     -1,
		frontier:      -1,
		catchupTarget: -1,
	}
	// The value plane's rings are sized from the windows: stashed actuals
	// stay useful for lookback iterations (plus the deepest spread rejoin
	// re-sends and checkpoint rollback can add); per-iteration state spans
	// at most the unvalidated window. The overflow maps absorb anything
	// rarer. A rollback is refilled from the peers' rejoin logs, so it never
	// puts more than RejoinLog iterations back in flight however far apart
	// the checkpoints are — CheckpointEvery is tenant-supplied and must not
	// size a ring on its own.
	in, needsM, neededByM, err := resolveDeps(app, p.ID(), p.P())
	if err != nil {
		return Result{}, err
	}
	e.inRanks, e.needsM, e.neededByM = in, needsM, neededByM
	slack := cfg.FW + cfg.MaxOverrun + cfg.MaxCrashOverrun
	peerCap := (cfg.BW + slack) + 2*slack + min(cfg.CheckpointEvery, cfg.RejoinLog) + 16
	iterCap := slack + 4
	e.plane = newValuePlane(p.ID(), p.P(), cfg.BW, peerCap, iterCap, in)
	e.pub, _ = app.(Publisher)
	e.into, _ = app.(ComputerInto)
	e.spec, _ = app.(Speculator)
	e.corr, _ = app.(Corrector)
	e.stopper, _ = app.(Stopper)
	e.dr, _ = p.(DeadlineReceiver)
	if r, ok := p.(Releaser); ok {
		e.plane.release = r.Release
	}
	e.ob = newEngineObs(cfg.Metrics, cfg.Journal, p.ID())
	if e.ob != nil {
		e.ob.p = p
	}
	if cfg.CheckpointEvery > 0 {
		e.store = cfg.CheckpointStore
		e.sentLog = history.NewRing[histEntry](cfg.RejoinLog)
		e.noActualBefore = make([]int, p.P())
		e.postCrashLeft = make([]int, p.P())
		if fd, ok := p.(FailureDetector); ok {
			e.fd = fd
		}
		if ep, ok := p.(Epocher); ok {
			e.ep = ep
		}
		if err := e.maybeRestore(); err != nil {
			return Result{}, err
		}
	}
	e.run()
	e.stats.Iters = cfg.MaxIter
	if e.stopped {
		e.stats.Iters = e.stopIter + 1
	}
	e.stats.ComputeTime = p.PhaseTime(cluster.PhaseCompute)
	e.stats.CommTime = p.PhaseTime(cluster.PhaseComm)
	e.stats.SpecTime = p.PhaseTime(cluster.PhaseSpec)
	e.stats.CheckTime = p.PhaseTime(cluster.PhaseCheck)
	e.stats.CorrectTime = p.PhaseTime(cluster.PhaseCorrect)
	e.stats.OverrunTime = p.PhaseTime(cluster.PhaseOverrun)
	e.stats.TotalTime = p.Now()
	if ns, ok := p.(NetStatser); ok {
		e.stats.Net = ns.NetStats()
	}
	final := e.plane.ownAt(cfg.MaxIter)
	if e.stopped {
		final = e.plane.ownAt(e.stopIter + 1)
	}
	return Result{Proc: p.ID(), Final: final, Converged: e.stopped, Stats: e.stats}, nil
}

func (e *engine) run() {
	t0 := 0
	if e.restored {
		// Resume where the snapshot left off; afterRestore has already asked
		// the peers to refill anything lost in the crash.
		t0 = e.frontier + 1
	} else {
		// InitLocal's buffer is handed over (App): it becomes slot 0 and
		// recycles through the pool like any slot.
		init := e.app.InitLocal()
		e.plane.pool.adopt(init)
		e.plane.own.put(0, init)
	}
	for t := t0; t < e.cfg.MaxIter && !e.stopped; t++ {
		e.iterate(t)
	}
	if !e.stopped {
		e.validateThrough(e.cfg.MaxIter - 1)
		e.noteCatchup()
	}
}

// iterate is Figure 3 for iteration t: broadcast, assemble (or speculate),
// compute X_j(t+1), validate as far as FW requires, checkpoint on cadence.
func (e *engine) iterate(t int) {
	if e.cfg.HoldSends && t > 0 {
		// Ablation: never send values computed from unvalidated inputs.
		e.validateThrough(t - 1)
	}
	e.ob.iterStart(t)
	e.broadcast(t)
	e.drain()
	view := e.assembleView(t)
	next := e.compute(e.plane.ownSlot(t+1, view[e.p.ID()]), view, t)
	ph := cluster.PhaseCompute
	if e.degrading() && t-e.validated > e.cfg.FW {
		// Running past the forward window on an overdue peer's
		// speculation: account the compute as overrun.
		ph = cluster.PhaseOverrun
	}
	e.p.Compute(e.app.ComputeOps(), ph)
	copy(e.plane.ownSlot(t+1, next), next) // a no-op when next is the slot
	e.frontier = t
	e.ob.iterEnd(t)
	e.noteCatchup()
	// Keep at most FW iterations resting on unvalidated inputs: after
	// computing iteration t, everything up to t+1−FW must be validated.
	// With FW=1 this validates iteration t itself — exactly Figure 3's
	// "compute, then wait for the remaining messages and check".
	lag := t + 1 - e.cfg.FW
	if lag > t {
		lag = t // FW=0: iteration t's inputs were already actual
	}
	if lag >= 0 {
		if !e.degrading() {
			e.validateThrough(lag)
		} else {
			// Graceful degradation: wait at most Deadline per overdue
			// peer, then let speculation overrun the forward window — but
			// never past the overrun budget, beyond which we block hard.
			// While a needed peer is down the budget stretches by
			// MaxCrashOverrun, bridging the outage on speculation.
			if floor := lag - e.overrunBudget(); floor >= 0 {
				e.validateThrough(floor)
			}
			e.tryValidateThrough(lag)
		}
	}
	if e.cfg.CheckpointEvery > 0 && (t+1)%e.cfg.CheckpointEvery == 0 {
		e.takeCheckpoint()
	}
}

// compute evaluates X_j(t+1) into dst, the plane's slot, or — for an app
// without ComputerInto — returns Compute's result for the caller to copy.
func (e *engine) compute(dst []float64, view [][]float64, t int) []float64 {
	if e.into == nil {
		return e.app.Compute(view, t)
	}
	e.into.ComputeInto(dst, view, t)
	return dst
}

// overrunBudget is how far validation may lag past the forward window
// before the engine blocks hard on the overdue peer: MaxOverrun, stretched
// by MaxCrashOverrun while a needed peer is down.
func (e *engine) overrunBudget() int {
	b := e.cfg.MaxOverrun
	if e.fd != nil && e.cfg.MaxCrashOverrun > 0 && e.anyNeededPeerDown() {
		b += e.cfg.MaxCrashOverrun
	}
	return b
}

// lookback bounds how far back stashed actuals stay useful: the speculation
// base plus the deepest validation lag the engine can accumulate.
func (e *engine) lookback() int {
	return e.cfg.BW + e.cfg.FW + e.cfg.MaxOverrun + e.cfg.MaxCrashOverrun
}

// degrading reports whether deadline-based graceful degradation is active.
// It needs speculation (FW >= 1) and a transport that can time out a
// receive; HoldSends keeps its strict validate-before-send semantics.
func (e *engine) degrading() bool {
	return e.cfg.Deadline > 0 && e.cfg.FW >= 1 && !e.cfg.HoldSends && e.dr != nil
}

// broadcast sends the local partition (or its published projection) for
// iteration t to every peer, and logs a copy so a crashed peer can ask for it
// again on rejoin. Send only borrows the payload, so the slot or the app's
// Publish buffer goes out as it stands; the log's copy is a pool buffer, and
// the entry it pushes out goes back to the pool.
func (e *engine) broadcast(t int) {
	payload := e.plane.ownAt(t)
	if e.pub != nil {
		payload = e.pub.Publish(payload)
	}
	if e.sentLog != nil {
		var logged []float64
		if payload != nil {
			logged = e.plane.pool.get(len(payload))
			copy(logged, payload)
		}
		if old, ok := e.sentLog.Push(histEntry{iter: t, data: logged}); ok {
			e.plane.pool.put(old.data)
		}
	}
	for k := 0; k < e.p.P(); k++ {
		if k == e.p.ID() || !e.neededBy(k) {
			continue
		}
		e.p.Send(k, DataTag, t, payload)
	}
}

// needs reports whether this processor reads peer k's payload — k is the
// source of one of this processor's in-edges.
func (e *engine) needs(k int) bool {
	return e.needsM[k]
}

// neededBy reports whether peer k reads this processor's payload — k is the
// destination of one of this processor's out-edges.
func (e *engine) neededBy(k int) bool {
	return e.neededByM[k]
}

// drain moves every delivered message into the received stash, dispatching
// any recovery-protocol traffic along the way.
func (e *engine) drain() {
	for {
		m, ok := e.p.TryRecv(cluster.Any, cluster.Any)
		if !ok {
			return
		}
		e.intake(m)
	}
}

// actual blocks until the real snapshot of peer k at iteration t is
// available, dispatching any other traffic that arrives meanwhile. It
// returns nil when the snapshot can never arrive (a catch-up gap) — callers
// must then accept the speculation unverified. With crash recovery enabled
// the wait is chunked into slices of 4×Deadline (1 when Deadline is 0):
// each expiry re-requests the missing range from k, healing messages lost
// to a crash window or abandoned by the reliable layer after MaxRetries.
func (e *engine) actual(k, t int) []float64 {
	retry := 4 * e.cfg.Deadline
	if retry == 0 {
		retry = 1
	}
	for {
		if v, ok := e.plane.actualOf(k, t); ok {
			return v
		}
		if e.noActualBefore != nil && t < e.noActualBefore[k] {
			return nil
		}
		if e.cfg.CheckpointEvery > 0 && e.dr != nil {
			if m, ok := e.dr.RecvDeadline(cluster.Any, cluster.Any, retry); ok {
				e.intake(m)
			} else if e.fd == nil || !e.fd.PeerDown(k) {
				// Patience expired with the peer alive: the message is
				// presumed lost, not late. Ask for a refill.
				e.sendRejoin(k, t-1)
			}
			continue
		}
		e.intake(e.p.Recv(cluster.Any, cluster.Any))
	}
}

// assembleView builds the global view for iteration t. With FW=0 it blocks
// for every actual snapshot (Figure 1); otherwise missing snapshots are
// speculated (Figure 3) and recorded for later validation.
func (e *engine) assembleView(t int) [][]float64 {
	view := e.plane.newViewRow(t)
	view[e.p.ID()] = e.plane.ownAt(t)
	var preds [][]float64
	for k := 0; k < e.p.P(); k++ {
		if k == e.p.ID() || !e.needs(k) {
			continue
		}
		if v, ok := e.plane.actualOf(k, t); ok {
			view[k] = v
			continue
		}
		if e.cfg.FW == 0 {
			view[k] = e.actual(k, t)
			continue
		}
		pred := e.speculate(k, t)
		if pred == nil {
			// No history to speculate from (startup): block for the actual.
			view[k] = e.actual(k, t)
			continue
		}
		view[k] = pred
		if preds == nil {
			preds = e.plane.newPredRow(t)
		}
		preds[k] = pred
		e.stats.SpecsMade++
		e.ob.specMade(t, k)
	}
	return view
}

// speculate predicts peer k's iteration-t snapshot from the newest actual
// snapshots on hand into a pooled buffer — through the app's Speculator
// when it has one, otherwise Config.Predictor — so steady-state speculation
// allocates nothing. Returns nil if no history exists yet.
func (e *engine) speculate(k, t int) []float64 {
	hist, base := e.plane.collectHist(k, t, e.lookback(), e.cfg.BW)
	if base == -1 {
		return nil
	}
	steps := t - base
	if steps < 1 {
		steps = 1
	}
	dst := e.plane.pool.get(len(hist[0]))
	if e.spec != nil {
		e.p.Compute(e.spec.SpeculateInto(dst, k, hist, steps), cluster.PhaseSpec)
		return dst
	}
	pred := e.cfg.Predictor.PredictInto(dst, hist, steps)
	if len(pred) == 0 || &pred[0] != &dst[0] {
		e.plane.pool.put(dst)
	}
	e.p.Compute(e.cfg.Predictor.Ops()*float64(len(pred))*float64(steps), cluster.PhaseSpec)
	return pred
}

// validateThrough blocks until every iteration up to and including t has all
// its speculated inputs checked against actual messages, repairing and
// cascading recomputations as needed.
func (e *engine) validateThrough(t int) {
	for s := e.validated + 1; s <= t && !e.stopped; s++ {
		e.finishIter(s)
	}
}

// tryValidateThrough is validateThrough with a per-peer patience of
// Config.Deadline: when an overdue peer's message does not arrive in time,
// the iteration is marked as an overrun and validation is deferred —
// speculation then extends past the forward window until either the
// message lands (reconciliation) or the overrun budget forces a hard
// block. Returns false when it gave up on an overdue peer.
func (e *engine) tryValidateThrough(t int) bool {
	for s := e.validated + 1; s <= t && !e.stopped; s++ {
		if !e.collectActuals(s) {
			if !e.overrun[s] {
				e.overrun[s] = true
				e.stats.Overruns++
				e.ob.overrun(s)
			}
			return false
		}
		e.finishIter(s)
	}
	return true
}

// finishIter validates, reconciles, and retires one iteration.
func (e *engine) finishIter(s int) {
	e.validateIter(s)
	e.validated = s
	if e.overrun[s] {
		delete(e.overrun, s)
		e.stats.Reconciles++
		e.ob.reconciled(s)
	}
	e.checkConverged(s)
	e.retire(s)
}

// collectActuals waits, up to Deadline per overdue peer, until every needed
// peer's iteration-s snapshot is stashed. Returns false on a deadline
// expiry. A peer the failure detector reports down gets no wait at all —
// the crash is bridged on speculation immediately. On success the
// subsequent validateIter will not block.
func (e *engine) collectActuals(s int) bool {
	for k := 0; k < e.p.P(); k++ {
		if k == e.p.ID() || !e.needs(k) {
			continue
		}
		if _, ok := e.plane.actualOf(k, s); ok {
			continue
		}
		if e.noActualBefore != nil && s < e.noActualBefore[k] {
			continue // catch-up gap: nothing will ever arrive
		}
		if e.fd != nil && e.fd.PeerDown(k) {
			return false // dead peer: overrun without burning the deadline
		}
		if !e.waitActual(k, s, e.cfg.Deadline) {
			return false
		}
	}
	return true
}

// waitActual blocks until peer k's iteration-t snapshot is stashed or
// timeout elapses, dispatching any other traffic that arrives meanwhile.
func (e *engine) waitActual(k, t int, timeout float64) bool {
	deadline := e.p.Now() + timeout
	for {
		if _, ok := e.plane.actualOf(k, t); ok {
			return true
		}
		remaining := deadline - e.p.Now()
		if remaining <= 0 {
			return false
		}
		m, ok := e.dr.RecvDeadline(cluster.Any, cluster.Any, remaining)
		if !ok {
			_, have := e.plane.actualOf(k, t)
			return have
		}
		e.intake(m)
	}
}

// checkConverged evaluates the optional Stopper on iteration s's actual
// exchanged snapshots. All processors hold identical snapshot sets, so the
// decision is globally consistent without extra messages.
func (e *engine) checkConverged(s int) {
	if e.stopper == nil {
		return
	}
	view := e.plane.convScratch
	for k := 0; k < e.p.P(); k++ {
		if k == e.p.ID() {
			payload := e.plane.ownAt(s)
			if e.pub != nil {
				payload = e.pub.Publish(payload)
			}
			view[k] = payload
			continue
		}
		if !e.needs(k) {
			view[k] = nil // no messages from unneeded peers
			continue
		}
		view[k] = e.actual(k, s)
		if view[k] == nil {
			// Catch-up gap: this processor cannot evaluate Done(s) on the
			// same data its peers did, so it skips the evaluation. See the
			// DESIGN.md caveat on Stopper + crash recovery.
			return
		}
	}
	if ops := e.stopper.DoneOps(); ops > 0 {
		e.p.Compute(ops, cluster.PhaseOther)
	}
	if e.stopper.Done(view, s) {
		e.stopped = true
		e.stopIter = s
		e.ob.converged(s)
	}
}

// validateIter checks every prediction used at iteration t against the
// actual messages with App.Check; on any failure it repairs X_j(t+1) and
// cascades recomputation through the speculated frontier.
func (e *engine) validateIter(t int) {
	preds := e.plane.predsAt(t)
	view := e.plane.viewAt(t)
	dirty := false
	var worst CheckResult
	badPeers := e.badScratch[:0]
	for k := 0; k < e.p.P(); k++ {
		if k == e.p.ID() || !e.needs(k) {
			continue
		}
		if preds == nil || preds[k] == nil {
			// Actual was used directly; just make sure we have consumed it
			// for history purposes.
			e.actualIntoHistory(k, t)
			continue
		}
		act := e.actual(k, t)
		if act == nil {
			// Catch-up gap: the actual can never arrive, so the speculation
			// is accepted unverified and contributes no history entry.
			continue
		}
		res := e.app.Check(k, preds[k], act, e.plane.ownAt(t), t)
		if res.Ops > 0 {
			e.p.Compute(res.Ops, cluster.PhaseCheck)
		}
		e.stats.SpecsChecked++
		e.stats.UnitsBad += int64(res.Bad)
		e.stats.UnitsTotal += int64(res.Total)
		if e.ob != nil {
			frac := 0.0
			if res.Total > 0 {
				frac = float64(res.Bad) / float64(res.Total)
			}
			e.ob.specChecked(t, k, frac, res.Bad > 0)
			if e.postCrashLeft != nil && e.postCrashLeft[k] > 0 {
				e.postCrashLeft[k]--
				e.ob.postCrashErr(frac)
			}
		}
		if res.Bad > 0 {
			e.stats.SpecsBad++
			dirty = true
			worst.Bad += res.Bad
			worst.Total += res.Total
			badPeers = append(badPeers, k)
			// Patch the stored view with the actual values for recompute.
			view[k] = act
		}
		e.actualIntoHistory(k, t)
	}
	e.badScratch = badPeers[:0]
	if !dirty {
		return
	}
	// Repair, charging the app's RepairOps (the paper's k·N_i·f_comp or a
	// cheaper incremental correction): fold the Corrector over every failed
	// peer — each result passed back as the next call's computed, which App's
	// ownership rule makes safe — or recompute from the patched view.
	e.stats.Repairs++
	e.ob.repaired(t, e.frontier-t)
	ops := e.app.RepairOps(worst)
	fixed := e.plane.ownAt(t + 1)
	if e.corr != nil {
		local := e.plane.ownAt(t)
		for _, k := range badPeers {
			fixed = e.corr.Correct(fixed, local, k, preds[k], view[k], t)
		}
	} else {
		fixed = e.compute(fixed, view, t)
	}
	copy(e.plane.ownSlot(t+1, fixed), fixed) // nothing moves when fixed is the slot
	e.p.Compute(ops, cluster.PhaseCorrect)
	// Cascade: any later iterations already computed used the stale
	// X_j(t+1). Each is redone once, on the repaired local entry and on every
	// input whose actual has arrived since (supersede): a wrong guess costs one
	// recompute, not one per window slot. The clock charge is the app's
	// incremental repair cost — the affected work is the part touched by the
	// corrected inputs, the same accounting the paper's k·N_i·f_comp term
	// models (a full-recompute app simply returns ComputeOps from RepairOps).
	for s := t + 1; s <= e.frontier; s++ {
		row := e.plane.viewAt(s)
		row[e.p.ID()] = e.plane.ownAt(s)
		e.supersede(s, row)
		redo := e.compute(e.plane.ownAt(s+1), row, s)
		cops := e.app.RepairOps(worst)
		copy(e.plane.ownSlot(s+1, redo), redo)
		e.p.Compute(cops, cluster.PhaseCorrect)
		e.stats.CascadeRedos++
		e.ob.cascaded(s)
	}
}

// supersede is the cascade's input rule: before iteration s is redone, poll
// once and replace every prediction of s whose actual has arrived with that
// actual — a recompute never rests on a prediction the stash can already
// replace. The retired prediction's slot is nil, so validateIter(s) takes its
// "actual was used directly" branch: history is fed, nothing is checked twice.
func (e *engine) supersede(s int, row [][]float64) {
	e.drain()
	preds := e.plane.predsAt(s)
	if preds == nil {
		return
	}
	for _, k := range e.inRanks {
		if act, ok := e.plane.actualOf(k, s); ok && preds[k] != nil {
			row[k] = act
			e.plane.pool.put(preds[k])
			preds[k] = nil
			e.stats.SpecsSuperseded++
			e.ob.specSuperseded(s, k)
		}
	}
}

// actualIntoHistory pushes peer k's iteration-t actual snapshot into the
// backward-window ring (validation proceeds in iteration order, so pushes
// are ordered too). A catch-up gap (nil actual) contributes nothing.
func (e *engine) actualIntoHistory(k, t int) {
	v := e.actual(k, t)
	if v == nil {
		return
	}
	e.plane.pushHistory(k, t, v)
}

// retire drops per-iteration bookkeeping no longer needed after validation,
// recycling buffers back into the plane's pools.
func (e *engine) retire(t int) {
	e.plane.advanceFloors(e.validated, e.lookback())
	e.plane.dropPreds(t)
	if t <= e.frontier {
		// views[t] may still be needed by a cascade from an earlier repair
		// only while t is unvalidated; once validated it is safe to drop.
		e.plane.dropView(t)
	}
	e.plane.dropOwn(t - 1)
	if testRetireHook != nil {
		testRetireHook(e, t)
	}
}

// testRetireHook, when non-nil (set only by tests), observes the engine
// after each retire — the memory-bound invariant is asserted there.
var testRetireHook func(e *engine, t int)
