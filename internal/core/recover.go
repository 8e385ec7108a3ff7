package core

// Crash/restart recovery (see DESIGN.md "Crash recovery"): every
// CheckpointEvery iterations the engine snapshots its state to stable
// storage; a restarted processor restores the latest snapshot, asks each
// needed peer to re-send broadcasts it lost (rejoin), and replays forward —
// on re-sent actuals where possible, on speculation where a catch-up gap
// makes verification impossible. Surviving peers bridge the outage through
// the graceful-degradation machinery: the failure detector lets them skip
// waiting on a dead peer, and MaxCrashOverrun lets speculation run deeper
// past the forward window until the rejoiner returns.

import (
	"fmt"
	"sort"

	"specomp/internal/checkpoint"
	"specomp/internal/cluster"
)

// FailureDetector is an optional Transport extension reporting whether a
// peer is currently inside a crash window. The simulated cluster implements
// it as a perfect failure detector; real deployments would back it with
// heartbeats and accept false positives.
type FailureDetector interface {
	PeerDown(peer int) bool
}

var _ FailureDetector = (*cluster.Proc)(nil)

// Epocher is an optional Transport extension exposing the processor's
// incarnation epoch (bumped on every restart); it brands checkpoints.
type Epocher interface {
	Epoch() int
}

var _ Epocher = (*cluster.Proc)(nil)

// postCrashWindow is how many validations of a rejoined peer's predictions
// feed the post-crash prediction-error decay histogram.
const postCrashWindow = 32

// intake dispatches one delivered message: data to the stash, recovery
// protocol to its handlers. Every engine receive funnels through here so a
// rejoin request is served no matter what the processor is blocked on.
func (e *engine) intake(m cluster.Message) {
	switch m.Tag {
	case DataTag:
		// First-wins is enforced by the plane: a rejoin re-send must never
		// overwrite the copy peers already computed against.
		e.plane.stash(m.Src, m.Iter, m.Data)
		return
	case RejoinTag:
		e.handleRejoin(m)
	case RejoinAckTag:
		e.handleRejoinAck(m)
	}
	e.plane.giveBack(m.Data) // a protocol payload is read once, while handled
}

// sendRejoin asks peer k to re-send every broadcast above iteration have.
func (e *engine) sendRejoin(k, have int) {
	e.p.Send(k, RejoinTag, have, nil)
}

// handleRejoin serves a peer's rejoin/refill request: re-send every logged
// broadcast above m.Iter, then ack with our frontier and the oldest
// iteration still in the log, so the requester can detect an unrecoverable
// gap. Serving is idempotent — the requester's stash is first-wins.
func (e *engine) handleRejoin(m cluster.Message) {
	k := m.Src
	oldest := e.frontier + 1 // nothing re-sendable unless the log says so
	if e.sentLog != nil {
		if n := e.sentLog.Len(); n > 0 {
			oldest = e.sentLog.At(n - 1).iter
			for i := n - 1; i >= 0; i-- {
				if h := e.sentLog.At(i); h.iter > m.Iter {
					e.p.Send(k, DataTag, h.iter, h.data)
				}
			}
		}
	}
	e.p.Send(k, RejoinAckTag, e.frontier, []float64{float64(oldest)})
	if e.postCrashLeft != nil {
		e.postCrashLeft[k] = postCrashWindow
	}
	e.ob.rejoinServed(k, m.Iter)
}

// handleRejoinAck processes a peer's answer to our rejoin/refill request.
// Anything below the peer's oldest logged broadcast can never arrive: mark
// it as a catch-up gap so validation accepts the speculation unverified
// instead of blocking forever. The frontier in the ack sets the catch-up
// target a freshly restored processor races toward.
func (e *engine) handleRejoinAck(m cluster.Message) {
	k := m.Src
	oldest := 0
	if len(m.Data) > 0 {
		oldest = int(m.Data[0])
	}
	if e.noActualBefore != nil && oldest > e.noActualBefore[k] {
		if oldest > e.validated+1 {
			e.ob.catchupGap(k, oldest)
		}
		e.noActualBefore[k] = oldest
	}
	if e.catchupTarget >= 0 && m.Iter > e.catchupTarget {
		e.catchupTarget = m.Iter
	}
}

// anyNeededPeerDown reports whether the failure detector sees any peer this
// processor reads from inside a crash window.
func (e *engine) anyNeededPeerDown() bool {
	for k := 0; k < e.p.P(); k++ {
		if k == e.p.ID() || !e.needs(k) {
			continue
		}
		if e.fd.PeerDown(k) {
			return true
		}
	}
	return false
}

// noteCatchup records, once per restore, the moment the replay re-reaches
// the surviving peers' frontier.
func (e *engine) noteCatchup() {
	if e.catchupTarget < 0 || e.frontier < e.catchupTarget {
		return
	}
	n := e.frontier - e.restoreFrontier
	e.stats.CatchupIters += n
	e.ob.catchup(e.frontier, n)
	e.catchupTarget = -1
}

// maybeRestore loads the latest checkpoint, if any, and rejoins the
// computation from it. Called once from Run before the main loop; a fresh
// processor (no checkpoint yet) starts from iteration zero as usual.
func (e *engine) maybeRestore() error {
	blob, ok := e.store.Load(e.p.ID())
	if !ok {
		return nil
	}
	s, err := checkpoint.Decode(blob)
	if err != nil {
		return fmt.Errorf("core: restoring checkpoint: %w", err)
	}
	if s.Proc != e.p.ID() {
		return fmt.Errorf("core: checkpoint for processor %d loaded on %d", s.Proc, e.p.ID())
	}
	e.applySnapshot(s)
	e.restored = true
	e.restoreFrontier = e.frontier
	e.catchupTarget = e.frontier
	e.stats.Restores++
	e.ob.restored(e.validated)
	// Ask every peer we read from to refill what the crash lost (anything
	// above our restored frontier, plus re-sends of unvalidated actuals we
	// may be missing) and to report its frontier. Requests lost to further
	// crashes are retried from actual()'s patience loop.
	for k := 0; k < e.p.P(); k++ {
		if k == e.p.ID() || !e.needs(k) {
			continue
		}
		e.sendRejoin(k, e.validated)
	}
	return nil
}

// takeCheckpoint snapshots the engine to stable storage, charging the
// configured cost to the perf model. The snapshot is assembled in e.snap and
// encoded into e.ckptBuf, both reused from one checkpoint to the next; the
// store borrows the blob for the length of Save (checkpoint.Store).
func (e *engine) takeCheckpoint() {
	began := e.ob.clock()
	e.ckptBuf = checkpoint.AppendEncode(e.ckptBuf[:0], e.buildSnapshot())
	blob := e.ckptBuf
	e.store.Save(e.p.ID(), blob)
	if e.cfg.CheckpointOps > 0 {
		e.p.Compute(e.cfg.CheckpointOps, cluster.PhaseOther)
	}
	e.stats.Checkpoints++
	e.stats.CheckpointBytes += int64(len(blob))
	e.ob.checkpointed(e.validated, len(blob), began)
}

// buildSnapshot assembles the engine state in the canonical (ascending by
// iteration) order the checkpoint encoding requires, reading it out of the
// value plane into the engine's snapshot scratch. The result is valid until
// the next call.
func (e *engine) buildSnapshot() *checkpoint.Snapshot {
	s := &e.snap
	s.Proc, s.Epoch = e.p.ID(), 0
	if e.ep != nil {
		s.Epoch = e.ep.Epoch()
	}
	s.Validated, s.Frontier = e.validated, e.frontier
	s.Own = e.plane.ownEntries(s.Own[:0], e.validated, e.frontier)
	s.Preds = e.plane.predRows(s.Preds[:0], e.validated, e.frontier)
	s.Overrun = s.Overrun[:0]
	for it := range e.overrun {
		s.Overrun = append(s.Overrun, it)
	}
	sort.Ints(s.Overrun)
	if s.Hist == nil {
		s.Hist = make([][]checkpoint.Entry, e.p.P())
		s.Received = make([][]checkpoint.Entry, e.p.P())
	}
	// Stash entries below the retention horizon are dead (no lookup reaches
	// them); the emission window keeps blobs minimal and stable.
	from := e.validated - e.lookback()
	for k := range s.Hist {
		s.Hist[k] = e.plane.histEntries(s.Hist[k][:0], k)
		s.Received[k] = e.plane.receivedEntries(s.Received[k][:0], k, from)
	}
	s.SentLog = s.SentLog[:0]
	for i := e.sentLog.Len() - 1; i >= 0; i-- { // oldest first
		h := e.sentLog.At(i)
		s.SentLog = append(s.SentLog, checkpoint.Entry{Iter: h.iter, Data: h.data})
	}
	return s
}

// applySnapshot loads snapshot state into a freshly constructed engine and
// rebuilds the derived views for the unvalidated range, so pending checks,
// repairs and cascades can run exactly as they would have.
func (e *engine) applySnapshot(s *checkpoint.Snapshot) {
	e.validated, e.frontier = s.Validated, s.Frontier
	e.plane.restored = make(map[*float64]bool)
	for _, en := range s.Own {
		copy(e.plane.ownSlot(en.Iter, en.Data), en.Data)
	}
	for k, hs := range s.Hist {
		if k >= e.p.P() || k == e.p.ID() {
			continue
		}
		for _, en := range hs {
			e.plane.keep(en.Data)
			e.plane.pushHistory(k, en.Iter, en.Data)
		}
	}
	for k, rs := range s.Received {
		if k >= e.p.P() || k == e.p.ID() {
			continue
		}
		for _, en := range rs {
			e.plane.keep(en.Data)
			e.plane.stash(k, en.Iter, en.Data)
		}
	}
	for _, row := range s.Preds {
		data := e.plane.newPredRow(row.Iter)
		copy(data, row.Data)
	}
	for _, it := range s.Overrun {
		e.overrun[it] = true
	}
	for _, en := range s.SentLog {
		e.sentLog.Push(histEntry{iter: en.Iter, data: en.Data})
	}
	for t := e.validated + 1; t <= e.frontier; t++ {
		view := e.plane.newViewRow(t)
		view[e.p.ID()] = e.plane.ownAt(t)
		preds := e.plane.predsAt(t)
		for k := 0; k < e.p.P(); k++ {
			if k == e.p.ID() || !e.needs(k) {
				continue
			}
			if preds != nil && preds[k] != nil {
				view[k] = preds[k]
				continue
			}
			v, _ := e.plane.actualOf(k, t)
			view[k] = v
		}
	}
}
