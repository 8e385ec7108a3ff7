package distnet

// The node runtime: one OS process per processor, driving the unchanged
// internal/core engine through the core.Transport contract over real TCP
// links. RunNode is the whole lifecycle — join the coordinator, build the
// peer mesh, pass the start barrier, run the engine, report the result,
// tear down on the coordinator's shutdown.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"specomp/internal/checkpoint"
	"specomp/internal/cluster"
	"specomp/internal/core"
	"specomp/internal/faults"
	"specomp/internal/inbox"
	"specomp/internal/netmodel"
	"specomp/internal/obs"
)

// NodeConfig parameterizes one node process.
type NodeConfig struct {
	// Coord is the coordinator's address. Required.
	Coord string
	// Listen is the peer listen address (default "127.0.0.1:0"); the bound
	// address is reported to the coordinator for mesh assembly.
	Listen string
	// HTTPAddr, when non-empty, serves live introspection for the run:
	// /metrics (Prometheus), /journal (JSONL; the last 4096–8192 events
	// unless the spec sets Trace), expvar and pprof — the same endpoint
	// realtime runs get. Use "127.0.0.1:0" for an ephemeral port.
	HTTPAddr string
	// Faults, when non-nil, applies the simulator's fault semantics to this
	// node's send path: every outgoing data message is planned through the
	// model (drop / duplicate / a delay each copy's receiver owes it) before
	// it touches the socket. See faults.Injector.
	Faults netmodel.Model
	// FaultSeed seeds the injector's RNG.
	FaultSeed int64
	// Epoch is this process's incarnation epoch — 0 on first launch, higher
	// when a supervisor relaunched a crashed node.
	Epoch int
	// DialTimeout bounds each connection establishment, retried with
	// exponential backoff inside it (default 10s).
	DialTimeout time.Duration
	// HeartbeatEvery is the liveness beacon interval (default 250ms);
	// HeartbeatTimeout is the staleness threshold after which a silent peer
	// is reported down to the engine's failure detector (default 2s).
	HeartbeatEvery   time.Duration
	HeartbeatTimeout time.Duration
	// JournalDir, when non-empty, streams the node's run journal to
	// <JournalDir>/node-<rank>.jsonl through a buffered, size-capped writer
	// (see obs.JournalWriter) — the durable journal long soaks keep.
	JournalDir string
	// JournalMaxBytes caps the journal file before rotation (<= 0: no cap).
	JournalMaxBytes int64
	// Logf, when non-nil, receives progress lines (addresses, mesh events).
	Logf func(format string, args ...any)

	// linkQueue is each peer link's send-queue capacity (tests force it
	// down to 1); normalize sets linkQueueCap.
	linkQueue int
}

// linkQueueCap bounds every peer link's send queue. It does not grow with
// run length: a full queue blocks Send — TCP backpressure — and that cannot
// deadlock, because each link's writer drains into the socket and each
// reader drains the socket into an inbox that never blocks, so no send ever
// waits on the receiving engine.
const linkQueueCap = 128

// A pending batch is flushed inline once it holds maxBatchMsgs messages or
// maxBatchBytes payload bytes.
const (
	maxBatchMsgs  = 32
	maxBatchBytes = 48 << 10
)

func (cfg *NodeConfig) normalize() error {
	if cfg.Coord == "" {
		return fmt.Errorf("distnet: NodeConfig.Coord is required")
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 250 * time.Millisecond
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 2 * time.Second
	}
	if cfg.linkQueue <= 0 {
		cfg.linkQueue = linkQueueCap
	}
	return nil
}

func (cfg *NodeConfig) logf(format string, args ...any) {
	if cfg.Logf != nil {
		cfg.Logf(format, args...)
	}
}

// NodeResult is one node process's outcome.
type NodeResult struct {
	Rank int
	// HTTPAddr is the bound introspection address ("" when not served).
	HTTPAddr string
	// Result is the engine's outcome, exactly as on the other substrates.
	Result core.Result
	// Wall is the run duration from start barrier to engine completion.
	Wall time.Duration
}

// transport drives core.Transport over the peer mesh. The engine calls it
// from a single goroutine; per-peer reader and writer goroutines feed and
// drain the sockets.
type transport struct {
	rank, p int
	epoch   int
	start   time.Time
	// peers holds one live link per rank (nil at own index). Slots are
	// atomic pointers because the accept loop swaps in replacement links
	// when a crashed peer rejoins with a higher epoch, racing the engine
	// goroutine's sends; the data path pays one atomic load per access and
	// keeps its zero-allocation steady state.
	peers   []atomic.Pointer[peerConn]
	inbox   *inbox.Inbox
	commSec float64
	inj     *faults.Injector
	procs   int

	hbTimeout time.Duration

	// Mesh admission: the listener serves the whole run, and every link,
	// dialed or accepted, is admitted by install under meshMu. linked counts
	// the filled peer slots and meshUp closes when all are; closed is set by
	// close, after which install refuses. detachedFrames accumulates the
	// frame counts of links retired by a swap so framesSentTotal stays
	// complete.
	meshMu         sync.Mutex
	myHello        Frame
	nodeCfg        NodeConfig
	linked         int
	meshUp         chan struct{}
	closed         bool
	detachedFrames atomic.Int64

	// Batch accumulation: per-destination pending messages, leaving as one
	// FrameBatch per peer. The one flush rule: a message handed to Send is on
	// its link before the caller computes, blocks, or returns — pend is
	// flushed when a size cap trips, when TryRecv finds the inbox empty, on
	// entry to Recv/RecvDeadline (both sides flush before blocking, so
	// batching can never deadlock the exchange) and when the engine returns.
	// Engine goroutine only, so no lock and no timer.
	pend      [][]cluster.Message // pooled slices
	pendBytes []int
	pendMsgs  int // messages across all of pend; 0 lets a flush skip the walk

	// lat histograms per-message delivery latencies (DeliveredAt − SentAt)
	// for the report's p50/p99: a fixed array, whatever the run length.
	lat latHist

	msgsSent, msgsRecvd, bytesSent int
	drops                          int // sends the injector suppressed

	obsMsgsSent  *obs.Counter
	obsBytesSent *obs.Counter

	// wobs is the wire-plane instrument set (nil when uninstrumented);
	// journal + traceWire gate send/deliver trace events for the fleet
	// trace merge.
	wobs      *wireObs
	journal   *obs.Journal
	traceWire bool
}

var _ interface {
	core.Transport
	core.Releaser
	core.DeadlineReceiver
	core.FailureDetector
	core.Epocher
	core.NetStatser
} = (*transport)(nil)

// peer returns the current link to rank j (nil at own index).
func (t *transport) peer(j int) *peerConn { return t.peers[j].Load() }

func (t *transport) ID() int      { return t.rank }
func (t *transport) P() int       { return t.p }
func (t *transport) Now() float64 { return time.Since(t.start).Seconds() }

// Compute is a no-op: wall-clock substrate, the app's real CPU time is the
// cost.
func (t *transport) Compute(float64, cluster.Phase) {}

// Send enqueues each planned copy of the message with data copied into a row
// of the node's inbox, which the link's writer releases once it is encoded.
func (t *transport) Send(dst, tag, iter int, data []float64) {
	if dst < 0 || dst >= t.p {
		panic(fmt.Sprintf("distnet: Send to invalid processor %d", dst))
	}
	m := cluster.Message{Src: t.rank, Dst: dst, Tag: tag, Iter: iter, Epoch: t.epoch, SentAt: t.Now()}
	bytes := 8*len(data) + cluster.MsgHeaderBytes // logical accounting parity with the simulator
	t.msgsSent++
	t.bytesSent += bytes
	t.obsMsgsSent.Inc()
	t.obsBytesSent.Add(float64(bytes))
	if t.traceWire {
		t.journal.Record(obs.Event{T: m.SentAt, Proc: t.rank, Kind: obs.EvSend, Iter: iter, Peer: dst, V: float64(tag)})
	}
	pc := t.peer(dst)
	plan := oneCopy
	if t.inj != nil {
		// Fault injection is per message, not per frame: each logical message
		// is planned individually (parity with the simulator's DeliveriesOf).
		// Every planned copy leaves at once, in the batcher like any send,
		// carrying its delay as the hold the receiver's inbox owes it.
		if plan = t.inj.Plan(t.rank, dst, bytes, t.procs, m.SentAt); len(plan) == 0 {
			t.drops++
			return
		}
	}
	for _, d := range plan {
		m.Hold = 0
		if d > 0 {
			m.Hold = d
		}
		m.Data = t.inbox.Copy(data)
		t.enqueueData(pc, m, bytes)
	}
}

// oneCopy is the plan of a send without fault injection.
var oneCopy = []float64{0}

// Release implements core.Releaser: delivered payloads are inbox rows.
func (t *transport) Release(data []float64) { t.inbox.Release(data) }

// enqueueData appends one data message to its link's pending batch. Size
// caps flush inline.
func (t *transport) enqueueData(pc *peerConn, m cluster.Message, bytes int) {
	dst := pc.rank
	t.pend[dst] = append(t.pend[dst], m)
	t.pendBytes[dst] += bytes
	t.pendMsgs++
	if len(t.pend[dst]) >= maxBatchMsgs {
		pc.send(t.pop(dst, flushMsgs))
	} else if t.pendBytes[dst] >= maxBatchBytes {
		pc.send(t.pop(dst, flushBytes))
	}
}

// pop removes and returns dst's non-empty pending batch as a ready-to-send
// frame (a plain data frame when only one message is pending), recording
// the flush reason and batch occupancy.
func (t *transport) pop(dst, reason int) Frame {
	msgs := t.pend[dst]
	t.wobs.noteFlush(reason, len(msgs))
	t.pendBytes[dst] = 0
	t.pendMsgs -= len(msgs)
	if len(msgs) == 1 { // a lone message keeps its slice: no pool round trip
		m := msgs[0]
		clear(msgs)
		t.pend[dst] = msgs[:0]
		return Frame{Type: FrameData, Msg: m}
	}
	t.pend[dst] = getBatch()
	return Frame{Type: FrameBatch, Batch: msgs}
}

// flushAll pushes every pending batch onto its link. It runs wherever the
// engine stops talking (see pend): what the caller does next may take
// arbitrarily long, and a peer may be waiting on exactly these messages.
func (t *transport) flushAll(reason int) {
	if t.pendMsgs == 0 {
		return
	}
	for dst := range t.pend {
		if len(t.pend[dst]) > 0 {
			t.peer(dst).send(t.pop(dst, reason))
		}
	}
}

// popped stamps a message just taken from the inbox, counts it and records
// its delivery latency (clamped at zero: SentAt and DeliveredAt are measured
// on different processes' clocks).
func (t *transport) popped(m *cluster.Message) {
	t.msgsRecvd++
	m.DeliveredAt = t.Now()
	d := m.DeliveredAt - m.SentAt
	if d < 0 {
		d = 0
	}
	t.lat.add(d)
	t.wobs.link(m.Src).observeLatency(d)
	if t.traceWire {
		t.journal.Record(obs.Event{T: m.DeliveredAt, Proc: t.rank, Kind: obs.EvDeliver, Iter: m.Iter, Peer: m.Src, V: d})
	}
}

// TryRecv polls the inbox; a poll that comes up empty flushes the pending
// batches before it returns. The engine ends every broadcast with exactly
// one such poll (drain) and then computes or blocks, so this is the last
// moment its sends can leave without waiting behind a compute. A poll that
// finds a message does not flush: the caller is still draining and will
// poll again. The flush can block on a full link queue, exactly as a
// size-cap flush inside Send already can.
func (t *transport) TryRecv(src, tag int) (cluster.Message, bool) {
	m, ok := t.take(src, tag, math.Inf(-1))
	if !ok {
		t.flushAll(flushRecv)
	}
	return m, ok
}

func (t *transport) Recv(src, tag int) cluster.Message {
	m, _ := t.RecvDeadline(src, tag, math.Inf(1))
	return m
}

func (t *transport) RecvDeadline(src, tag int, timeout float64) (cluster.Message, bool) {
	t.flushAll(flushRecv) // about to block: everything we owe the mesh goes out first
	before := time.Now()
	defer func() { t.commSec += time.Since(before).Seconds() }()
	return t.take(src, tag, timeout)
}

// take hands over the next visible message, waiting at most wait seconds.
func (t *transport) take(src, tag int, wait float64) (cluster.Message, bool) {
	cluster.MustAny(src, tag)
	m, ok := t.inbox.Take(wait)
	if ok {
		t.popped(&m)
	}
	return m, ok
}

func (t *transport) PhaseTime(ph cluster.Phase) float64 {
	if ph == cluster.PhaseComm {
		return t.commSec
	}
	return 0
}

// PeerDown implements core.FailureDetector over heartbeat staleness: a peer
// whose link errored out, or that has been silent past HeartbeatTimeout, is
// reported down — feeding the engine's crash-bridging machinery exactly as
// the simulator's perfect detector does, with the usual real-network caveat
// that silence is a suspicion, not a proof.
func (t *transport) PeerDown(peer int) bool {
	if peer < 0 || peer >= t.p || peer == t.rank {
		return false
	}
	return !t.peer(peer).alive(t.hbTimeout)
}

// Epoch implements core.Epocher: the process incarnation stamped on
// messages and checkpoints.
func (t *transport) Epoch() int { return t.epoch }

// NetStats implements core.NetStatser.
func (t *transport) NetStats() cluster.NetStats {
	return cluster.NetStats{
		MsgsSent:  t.msgsSent,
		MsgsRecvd: t.msgsRecvd,
		BytesSent: t.bytesSent,
	}
}

// reader pumps one peer link into the shared inbox until the link dies. A
// persistent Decoder carries the link's payload buffer across frames. It
// decodes each payload into a row the inbox lends, which the engine gives
// back through Release.
func (t *transport) reader(pc *peerConn) {
	dec := NewDecoder(bufio.NewReaderSize(pc.conn, 64<<10))
	dec.lend = t.inbox
	var f Frame
	for {
		if err := dec.Decode(&f); err != nil {
			pc.down.Store(true)
			return
		}
		pc.touch()
		switch f.Type {
		case FrameData:
			t.inbox.Put(f.Msg)
		case FrameBatch:
			for _, m := range f.Batch {
				t.inbox.Put(m)
			}
		case FrameHeartbeat:
			// touch above is the liveness half; the clock tail (if any)
			// feeds the link's offset estimator.
			pc.noteHeartbeat(f.Clock)
		case FrameShutdown:
			pc.down.Store(true)
			return
		default:
			// Unknown control on a peer link: tolerate (forward compat).
		}
	}
}

// framesSentTotal sums the physical frames written across all peer links,
// including links retired by a reconnect swap.
func (t *transport) framesSentTotal() int {
	n := t.detachedFrames.Load()
	for j := range t.peers {
		if pc := t.peer(j); pc != nil {
			n += pc.framesSent.Load()
		}
	}
	return int(n)
}

// close tears down every peer link, pushing any still-pending batches out
// first (shutdown must not strand messages a slower peer is waiting for),
// and releases the inbox's timer.
func (t *transport) close() {
	t.flushAll(flushClose)
	t.meshMu.Lock()
	t.closed = true
	t.meshMu.Unlock()
	for j := range t.peers {
		if pc := t.peer(j); pc != nil {
			pc.close()
		}
	}
	t.inbox.Close()
}

// coordStore adapts the coordinator connection to checkpoint.Store: Save
// ships snapshots into coordinator custody; Load returns the snapshot the
// coordinator handed back in the config frame (the restore path for a
// relaunched node).
type coordStore struct {
	rank    int
	coord   *peerConn
	initial []byte
}

// Save queues the snapshot as a checkpoint frame. The blob is only borrowed
// (checkpoint.Store) and the frame outlives the call, so this is the one
// copy the rule requires — into a buffer the link's writer hands back
// through coord.spare once an earlier frame is encoded, so a steady run
// cycles the same two instead of allocating a blob per checkpoint. A frame
// dropped by a dead link just leaves its buffer to the collector.
func (s *coordStore) Save(proc int, blob []byte) {
	var cp []byte
	select {
	case cp = <-s.coord.spare:
	default:
	}
	s.coord.send(Frame{Type: FrameCheckpoint, Rank: proc, Blob: append(cp[:0], blob...)})
}

func (s *coordStore) Load(proc int) ([]byte, bool) {
	if proc != s.rank || len(s.initial) == 0 {
		return nil, false
	}
	return s.initial, true
}

// journalTail bounds the in-memory journal of a node that does not ship its
// journal home: /journal serves the recent tail, and a JournalDir file keeps
// the full history.
const journalTail = 4096

// nodeInstruments builds a node's registry and journal, each only when
// something will read it; otherwise it is nil and every instrument on it
// costs one nil check. The registry's readers are the coordinator's metrics
// pushes and /metrics; the journal's are the Trace result, /journal and the
// JournalDir file. Only a Trace journal keeps every event, because it
// travels home whole in the result.
func nodeInstruments(cfg NodeConfig, wc wireConfig) (*obs.Registry, *obs.Journal) {
	var reg *obs.Registry
	if wc.ObsPush && wc.Spec.ObsPushMS > 0 || cfg.HTTPAddr != "" {
		reg = obs.NewRegistry()
	}
	var journal *obs.Journal
	if wc.Spec.Trace || cfg.HTTPAddr != "" || cfg.JournalDir != "" {
		journal = obs.NewJournal()
		if !wc.Spec.Trace {
			journal.Limit(journalTail)
		}
	}
	return reg, journal
}

// RunNode joins the coordinator at cfg.Coord, participates in one full run,
// and returns this process's outcome. It blocks until the coordinator
// releases the shutdown (so no node tears its links down while a slower
// peer still needs them).
func RunNode(cfg NodeConfig) (*NodeResult, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}

	// Listen for peers first: the listen address travels in the hello.
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("distnet: peer listener: %w", err)
	}
	defer ln.Close()

	// Join the coordinator.
	coordRaw, err := dialRetry(cfg.Coord, cfg.DialTimeout, cfg.Logf)
	if err != nil {
		return nil, err
	}
	// The coordinator link is control plane: no batching, and piggybacked
	// beacons without the clock tail.
	coord := newPeerConn(-1, coordRaw, 64, wireOpts{})
	defer coord.close()
	coord.send(Frame{Type: FrameHello, Rank: -1, Epoch: cfg.Epoch, Addr: ln.Addr().String()})
	stamps := LaunchStamps{JoinedUnix: unixNow()}

	// The config frame assigns our rank and carries the membership + spec.
	cf, err := readConfig(coordRaw, cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	wc, err := decodeConfig(cf.Blob)
	if err != nil {
		return nil, err
	}
	spec := wc.Spec
	rank, p := wc.Rank, spec.Procs
	cfg.logf("rank %d/%d assigned, peers %v", rank, p, wc.Peers)

	// Observability first: registry and journal exist before the mesh so
	// link construction, dial retries and the links themselves are
	// instrumented from the first frame — each only when something reads it.
	reg, journal := nodeInstruments(cfg, wc)
	core.RegisterEngineMetrics(reg, rank)
	lp := obs.L("proc", strconv.Itoa(rank))
	if cfg.JournalDir != "" {
		if err := os.MkdirAll(cfg.JournalDir, 0o755); err != nil {
			return nil, fmt.Errorf("distnet: journal dir: %w", err)
		}
		jw, err := obs.NewJournalWriter(
			filepath.Join(cfg.JournalDir, fmt.Sprintf("node-%d.jsonl", rank)), cfg.JournalMaxBytes)
		if err != nil {
			return nil, err
		}
		defer jw.Close() // flushes buffered tail events on every exit path
		journal.Attach(jw)
	}

	// Build the transport around the mesh.
	tr := &transport{
		rank: rank, p: p, epoch: cfg.Epoch,
		peers:     make([]atomic.Pointer[peerConn], p),
		inbox:     inbox.New(),
		inj:       faults.NewInjector(cfg.Faults, cfg.FaultSeed),
		procs:     p,
		hbTimeout: cfg.HeartbeatTimeout,
		nodeCfg:   cfg,
		wobs:      newWireObs(reg, rank, p),
		journal:   journal,
		traceWire: spec.Trace,
	}
	tr.pend = make([][]cluster.Message, p)
	for i := range tr.pend {
		tr.pend[i] = getBatch()
	}
	tr.pendBytes = make([]int, p)
	if wc.Rejoin {
		cfg.logf("rank %d: rejoining a run in flight (epoch %d), dialing all survivors", rank, cfg.Epoch)
	}
	if err := tr.connectMesh(ln, wc.Peers, cfg, wc.Rejoin); err != nil {
		tr.close()
		return nil, err
	}
	stamps.MeshUnix = unixNow()
	// Heartbeat the coordinator link too: its liveness window (the
	// coordinator's NodeTimeout) is how a hung node is detected without
	// waiting for the global run timeout. Beacons piggyback on control
	// traffic, so an active link costs nothing extra.
	go coord.heartbeater(cfg.HeartbeatEvery)

	// Control-plane reader for the coordinator link.
	barrierCh := make(chan struct{}, 1)
	shutdownCh := make(chan struct{})
	go func() {
		br := bufio.NewReader(coordRaw)
		for {
			f, err := readFrame(br)
			if err != nil {
				coord.down.Store(true)
				close(shutdownCh) // a dead coordinator ends the run
				return
			}
			coord.touch()
			switch f.Type {
			case FrameBarrier:
				barrierCh <- struct{}{} // the coordinator releases each link once
			case FrameShutdown:
				close(shutdownCh)
				return
			}
		}
	}()

	// Transport accounting counters + optional live HTTP endpoint — the
	// same artifacts a simulated run emits.
	tr.obsMsgsSent = reg.Counter(cluster.MetricMsgsSent, "logical messages passed to Send", lp)
	tr.obsBytesSent = reg.Counter(cluster.MetricBytesSent, "payload+header bytes of logical sends", lp)
	reg.Gauge(MetricNodeEpoch, "Process incarnation epoch (0 on first launch).", lp).Set(float64(cfg.Epoch))
	httpAddr := ""
	if cfg.HTTPAddr != "" {
		srv, err := obs.Listen(cfg.HTTPAddr, obs.Handler(reg, journal))
		if err != nil {
			tr.close()
			return nil, fmt.Errorf("distnet: obs endpoint: %w", err)
		}
		defer srv.Close()
		httpAddr = srv.Addr()
		cfg.logf("rank %d serving /metrics and /journal on http://%s", rank, httpAddr)
	}

	// Metrics push loop: when the coordinator asked for pushes, ship it a
	// full registry snapshot (Prometheus text) every ObsPushMS so the fleet
	// endpoint stays fresh while the run is live. A final push after the
	// engine finishes precedes the result frame on the same TCP stream, so
	// the coordinator always aggregates complete end-of-run counters.
	pushSnapshot := func() {
		// Count the push before rendering so the snapshot includes itself —
		// the final end-of-run push must not report one less than reality.
		tr.wobs.notePush()
		var buf bytes.Buffer
		if err := reg.WriteProm(&buf); err != nil {
			return
		}
		coord.send(Frame{Type: FrameObs, Rank: rank, Blob: append([]byte(nil), buf.Bytes()...)})
	}
	var pushStop, pushDone chan struct{}
	if wc.ObsPush && spec.ObsPushMS > 0 {
		pushStop = make(chan struct{})
		pushDone = make(chan struct{})
		go func() {
			defer close(pushDone)
			tk := time.NewTicker(time.Duration(spec.ObsPushMS) * time.Millisecond)
			defer tk.Stop()
			for {
				select {
				case <-tk.C:
					pushSnapshot()
				case <-pushStop:
					return
				}
			}
		}()
	}

	// Start barrier: every node reports its mesh up; the coordinator
	// releases them together so no engine races ahead of a half-built mesh.
	coord.send(Frame{Type: FrameBarrier})
	select {
	case <-barrierCh:
	case <-shutdownCh:
		tr.close()
		return nil, fmt.Errorf("distnet: coordinator went away before the start barrier")
	case <-time.After(cfg.DialTimeout + 30*time.Second):
		tr.close()
		return nil, fmt.Errorf("distnet: start barrier timed out")
	}
	stamps.ReleasedUnix = unixNow()

	app, err := BuildApp(spec, rank)
	if err != nil {
		tr.close()
		return nil, err
	}
	var store checkpoint.Store
	if spec.CheckpointEvery > 0 {
		store = &coordStore{rank: rank, coord: coord, initial: wc.Checkpoint}
	}
	ecfg := spec.CoreConfig(reg, journal, store)

	tr.start = time.Now()
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	res, runErr := core.Run(tr, app, ecfg)
	tr.flushAll(flushRecv) // the engine returned: nothing it sent waits for teardown
	runtime.ReadMemStats(&msAfter)
	wall := time.Since(tr.start)
	if runErr != nil {
		tr.close()
		return nil, fmt.Errorf("distnet: rank %d engine: %w", rank, runErr)
	}

	// Wire-plane throughput measures for the soak harness: delivery-latency
	// percentiles, physical frame count, and whole-process allocations per
	// message over the run.
	allocsPerMsg := 0.0
	if n := tr.msgsSent + tr.msgsRecvd; n > 0 {
		allocsPerMsg = float64(msAfter.Mallocs-msBefore.Mallocs) / float64(n)
	}

	// Harvest the per-link clock-offset estimates (peer clock minus ours)
	// for the trace merge, publishing them as gauges too.
	clockOff := make([]float64, p)
	clockRTT := make([]float64, p)
	for j := range tr.peers {
		pc := tr.peer(j)
		if pc == nil {
			continue
		}
		if off, rtt, ok := pc.clockOffset(); ok {
			clockOff[j], clockRTT[j] = off, rtt
			pc.opts.obs.setClock(off, rtt)
		}
	}

	// Stop the push loop, then send one final snapshot so the aggregated
	// endpoint reflects the finished run before the result lands.
	if pushStop != nil {
		close(pushStop)
		<-pushDone
		pushSnapshot()
	}

	var traceEvents []obs.Event
	if spec.Trace {
		traceEvents = journal.Events()
	}

	// Report the outcome, then hold the mesh open until the coordinator
	// confirms every node is done.
	coord.send(Frame{Type: FrameResult, Final: res.Final, Blob: encodeJSON(NodeReport{
		Rank: rank, HTTP: httpAddr, Epoch: cfg.Epoch, Restores: res.Stats.Restores,
		Converged: res.Converged, Iters: res.Stats.Iters,
		SpecsMade: res.Stats.SpecsMade, SpecsBad: res.Stats.SpecsBad, SpecsSuperseded: res.Stats.SpecsSuperseded,
		Repairs: res.Stats.Repairs, Overruns: res.Stats.Overruns,
		WallSec: wall.Seconds(), CommSec: res.Stats.CommTime,
		MsgsSent: res.Stats.Net.MsgsSent, BytesSent: res.Stats.Net.BytesSent,
		MsgsRecvd:    tr.msgsRecvd,
		FramesSent:   tr.framesSentTotal(),
		LatP50Sec:    tr.lat.quantile(0.50),
		LatP99Sec:    tr.lat.quantile(0.99),
		AllocsPerMsg: allocsPerMsg,
		StartUnix:    float64(tr.start.UnixNano()) / 1e9,
		LaunchStamps: stamps,
		ClockOff:     clockOff,
		ClockRTT:     clockRTT,
		Journal:      traceEvents,
	})})
	select {
	case <-shutdownCh:
	case <-time.After(60 * time.Second):
		cfg.logf("rank %d: shutdown wait timed out, tearing down anyway", rank)
	}
	tr.close()
	return &NodeResult{Rank: rank, HTTPAddr: httpAddr, Result: res, Wall: wall}, nil
}

// readConfig reads the coordinator's config frame with a deadline.
func readConfig(conn net.Conn, timeout time.Duration) (Frame, error) {
	if timeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(timeout))
		defer conn.SetReadDeadline(time.Time{})
	}
	f, err := readFrame(conn)
	if err != nil {
		return Frame{}, fmt.Errorf("distnet: reading config: %w", err)
	}
	if f.Type != FrameConfig {
		return Frame{}, fmt.Errorf("distnet: expected config, got %v frame", f.Type)
	}
	return f, nil
}

// connectMesh builds the peer mesh. acceptLoop starts first and admits
// every inbound link for the rest of the run; then this node dials — on a
// fresh run every lower rank (already listening, and accepting this node's
// dial), on a rejoin every peer, whose install swaps its stale link out by
// the epoch rule. Each link opens with a hello exchange — the dialer
// introduces itself, the acceptor replies with its own hello — so both
// sides learn the peer's rank and incarnation epoch. connectMesh returns
// once every slot holds a link; a failed dial, or a slot still empty after
// DialTimeout+30s, is an error naming the rank.
func (t *transport) connectMesh(ln net.Listener, peers []string, cfg NodeConfig, rejoin bool) error {
	t.myHello = Frame{Type: FrameHello, Rank: t.rank, Epoch: t.epoch, Addr: peers[t.rank]}
	t.meshUp = make(chan struct{})
	if t.p == 1 {
		close(t.meshUp)
	}
	wait := cfg.DialTimeout + 30*time.Second
	timeout := time.NewTimer(wait)
	defer timeout.Stop()
	go t.acceptLoop(ln)

	dialTo := t.rank // fresh run: dial [0, rank)
	if rejoin {
		dialTo = t.p // rejoin: dial everyone but self
	}
	errs := make(chan error, t.p)
	dials := 0
	for j := 0; j < dialTo; j++ {
		if j == t.rank {
			continue
		}
		dials++
		go func(j int) {
			conn, hello, err := t.dialPeer(peers[j], j, t.myHello, cfg)
			if err == nil && !t.install(conn, hello, false) {
				conn.Close()
			}
			errs <- err
		}(j)
	}
	for ; dials > 0; dials-- {
		if err := <-errs; err != nil {
			return err
		}
	}
	select {
	case <-t.meshUp:
		return nil
	case <-timeout.C:
	}
	for j := range t.peers {
		if j != t.rank && t.peer(j) == nil {
			return fmt.Errorf("distnet: mesh incomplete: no link with rank %d after %v", j, wait)
		}
	}
	return nil
}

// acceptLoop serves the peer listener for the whole run, mesh build and
// rejoins alike: each inbound connection's hello is read on its own
// goroutine and the connection goes to install. A silent, garbled or
// refused connection is closed and changes nothing. The loop exits when
// the listener closes at teardown.
func (t *transport) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go func() {
			hello, err := readHello(conn, t.nodeCfg.DialTimeout)
			if err != nil || !t.install(conn, hello, true) {
				conn.Close()
			}
		}()
	}
}

// install is the one rule every peer link passes, dialed or accepted,
// during mesh build or after: conn, whose far end introduced itself with
// hello, becomes the link to hello's rank if that slot is empty (any
// incarnation) or holds a strictly older epoch — so a duplicate dial or a
// dead incarnation's late connect never tears down a healthy link. A
// self-ranked or out-of-range hello, and anything after close, is refused.
// The accept side passes reply: its hello answer goes out only once the
// rule has admitted the connection. An admitted link gets its reader and
// heartbeater, and a link it replaces is closed; a refused conn is the
// caller's to close.
func (t *transport) install(conn net.Conn, hello Frame, reply bool) bool {
	j := hello.Rank
	if j < 0 || j >= t.p || j == t.rank {
		return false
	}
	t.meshMu.Lock()
	cur := t.peer(j)
	admit := !t.closed && (cur == nil || hello.Epoch > cur.epoch)
	if admit && reply {
		_, err := writeFrame(conn, nil, &t.myHello)
		admit = err == nil
	}
	if !admit {
		t.meshMu.Unlock()
		return false
	}
	pc := newPeerConn(j, conn, t.nodeCfg.linkQueue, wireOpts{clock: true, obs: t.wobs.link(j), rows: t.inbox})
	pc.epoch = hello.Epoch
	t.peers[j].Store(pc)
	if cur == nil {
		if t.linked++; t.linked == t.p-1 {
			close(t.meshUp)
		}
	}
	t.meshMu.Unlock()
	if cur != nil {
		// Retire the stale link in the background: close drains its writer,
		// which can block briefly on a dead socket's write deadline.
		go func() {
			cur.close()
			t.detachedFrames.Add(cur.framesSent.Load())
		}()
		t.wobs.noteReconnect()
		t.nodeCfg.logf("rank %d: peer %d reconnected with epoch %d, stale link retired", t.rank, j, hello.Epoch)
	}
	go t.reader(pc)
	go pc.heartbeater(t.nodeCfg.HeartbeatEvery)
	return true
}

// dialPeer dials rank j, sends our hello and reads the reply, returning the
// peer's hello (rank + incarnation epoch). The error taxonomy is
// load-bearing here: a reply cut off mid-frame (io.ErrUnexpectedEOF — the
// peer was tearing down a half-open accept, or the connection raced its
// listener) is retried on a fresh connection within the dial budget, while
// a corrupt reply (ErrCorrupt — wrong process, protocol desync) fails the
// mesh immediately.
func (t *transport) dialPeer(addr string, j int, myHello Frame, cfg NodeConfig) (net.Conn, Frame, error) {
	deadline := time.Now().Add(cfg.DialTimeout)
	var lastErr error
	for attempt := 0; ; attempt++ {
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, Frame{}, fmt.Errorf("distnet: hello exchange with rank %d: %w", j, lastErr)
		}
		t.wobs.noteDial()
		conn, err := dialRetry(addr, remain, cfg.Logf)
		if err != nil {
			return nil, Frame{}, err
		}
		if _, err := writeFrame(conn, nil, &myHello); err != nil {
			conn.Close()
			return nil, Frame{}, fmt.Errorf("distnet: hello to rank %d: %w", j, err)
		}
		reply, err := readHello(conn, time.Until(deadline))
		if err == nil {
			if reply.Rank != j {
				conn.Close()
				return nil, Frame{}, fmt.Errorf("distnet: dialed rank %d but got hello from rank %d", j, reply.Rank)
			}
			return conn, reply, nil
		}
		conn.Close()
		if errors.Is(err, ErrCorrupt) {
			return nil, Frame{}, err // desynchronized stream: fatal, never retried
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) && !isTimeout(err) {
			return nil, Frame{}, err
		}
		lastErr = err
		t.wobs.noteHelloRetry()
		time.Sleep(time.Duration(25<<min(attempt, 5)) * time.Millisecond)
	}
}

// isTimeout reports whether err is a network timeout (deadline expiry on
// the hello read — retryable within the dial budget).
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
