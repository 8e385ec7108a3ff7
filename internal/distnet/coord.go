package distnet

// The coordinator: membership, rank assignment, run configuration, the
// start barrier, checkpoint custody and result collection. It is control
// plane only — no application data flows through it; peers exchange
// partitions directly over the mesh.
//
// Protocol, in run order (all frames over each node's one coordinator
// connection):
//
//	node  → coord   hello   {epoch, peer-listen-addr}
//	coord → node    config  {rank, peers[], spec, checkpoint?}   (after P hellos)
//	node  → coord   barrier                                      (mesh is up)
//	coord → node    barrier                                      (all meshes up: start)
//	node  → coord   checkpoint {proc, blob}                      (0..n times during the run)
//	node  → coord   result  {json}
//	coord → node    shutdown                                     (after P results)
//	node  → coord   end-of-stream                                (its mesh is down: the ack)
//
// Crash tolerance (this is where the paper's speculation pays off in real
// processes): a node whose control connection dies or goes silent before
// its result VACATES its rank instead of failing the run. A later hello
// carrying epoch > 0 reclaims the lowest vacated rank — the respawned
// process is stateless until configured, so any vacancy fits — and receives
// its config plus the latest custody checkpoint to restore from. Survivors
// bridge the gap on speculation (the engine's MaxCrashOverrun path). Only a
// vacancy nobody reclaims within RejoinWait fails the run, with an error
// naming both the loss (ErrRankLost) and its cause (e.g. ErrNodeSilent).

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"specomp/internal/checkpoint"
	"specomp/internal/obs"
)

// ErrNodeSilent reports a node whose control connection produced no frame
// (data, checkpoint, obs push or heartbeat) for longer than the coordinator's
// staleness window. The connection may still be open — silence is the
// verdict, same as the mesh's heartbeat detector.
var ErrNodeSilent = errors.New("distnet: node control connection silent past staleness window")

// ErrRankLost reports a vacated rank that no rejoining node reclaimed
// within the coordinator's rejoin window.
var ErrRankLost = errors.New("distnet: rank lost and not reclaimed within rejoin window")

// ErrCoordClosed reports a run aborted by Close — a deliberate teardown
// (eviction, cancellation, shutdown), not a protocol failure. Callers that
// tore the run down on purpose can errors.Is for it.
var ErrCoordClosed = errors.New("distnet: coordinator closed")

// CoordConfig parameterizes a coordinator.
type CoordConfig struct {
	// Addr is the listen address (default "127.0.0.1:0").
	Addr string
	// Spec is the run configuration distributed to every node; Spec.Procs
	// is the membership size the coordinator waits for.
	Spec RunSpec
	// Timeout bounds the whole run, join to last result (default 5m).
	Timeout time.Duration
	// NodeTimeout is the control-plane staleness window: a node whose
	// coordinator connection carried no frame for this long mid-run is
	// declared dead and its rank vacated (default 10s; negative disables).
	// Nodes heartbeat their coordinator link, so a healthy-but-quiet node
	// never trips this.
	NodeTimeout time.Duration
	// RejoinWait bounds how long a vacated rank may stay unclaimed before
	// the run fails with ErrRankLost (default 30s). It should cover the
	// supervisor's detect + backoff + restart + redial path.
	RejoinWait time.Duration
	// Custody, when non-nil, is durable storage for checkpoint custody: a
	// background committer persists the newest snapshot of every rank there
	// (group commit, off the event loop), everything accepted is on disk
	// before a non-success Wait returns, and at startup any blobs it
	// already holds for ranks 0..Procs-1 seed the in-memory custody — a
	// restarted coordinator resumes the run's checkpoints instead of
	// losing them. A run that succeeds may leave its last snapshots
	// unwritten: custody exists to revive a run, and its holder Clears it.
	Custody checkpoint.Store
	// Fleet, when non-nil, aggregates the nodes' metrics snapshots: the
	// coordinator's configs ask for periodic pushes (wireConfig.ObsPush) and
	// it feeds every obs frame into it.
	Fleet *FleetObs
	// Logf, when non-nil, receives membership and lifecycle lines.
	Logf func(format string, args ...any)
}

// NodeReport is one node's outcome: the JSON body of the FrameResult it
// sends, as the coordinator keeps it. The coordinator sets Rank from the
// connection, Addr from the rank's hello and Final from the frame's raw tail.
type NodeReport struct {
	Rank      int     `json:"rank"`
	Addr      string  `json:"addr"`           // peer listen address
	HTTP      string  `json:"http,omitempty"` // node's obs endpoint, if served
	Converged bool    `json:"converged"`
	Iters     int     `json:"iters"`
	SpecsMade int     `json:"specs_made"`
	SpecsBad  int     `json:"specs_bad"`
	Repairs   int     `json:"repairs"`
	Overruns  int     `json:"overruns"`
	WallSec   float64 `json:"wall_sec"`
	CommSec   float64 `json:"comm_sec"`
	MsgsSent  int     `json:"msgs_sent"`
	BytesSent int     `json:"bytes_sent"`
	// Predictions a cascade replaced with the arrived actual, never checked.
	SpecsSuperseded int `json:"specs_superseded,omitempty"`
	// Crash-tolerance outcome: the incarnation epoch that produced this
	// result (> 0 means a supervisor respawned the node at least once) and
	// how many checkpoint restores the engine performed.
	Epoch    int `json:"epoch,omitempty"`
	Restores int `json:"restores,omitempty"`
	// Wire-plane throughput measures: messages delivered to the engine,
	// physical frames queued on peer links (MsgsSent plus beacons in a
	// fault-free run; fewer only where a burst left as batch frames),
	// delivery-latency percentiles, and whole-process heap allocations per
	// message over the run.
	MsgsRecvd    int     `json:"msgs_recvd,omitempty"`
	FramesSent   int     `json:"frames_sent,omitempty"`
	LatP50Sec    float64 `json:"lat_p50_sec,omitempty"`
	LatP99Sec    float64 `json:"lat_p99_sec,omitempty"`
	AllocsPerMsg float64 `json:"allocs_per_msg,omitempty"`
	// Trace-merge support: the wall-clock instant of the node's journal t=0,
	// its clock offset/RTT estimate to every peer (index-aligned by rank; 0
	// at its own rank and where no estimate exists), and — under
	// RunSpec.Trace — the node's run journal for trace.FleetChromeEvents.
	StartUnix float64     `json:"start_unix,omitempty"`
	ClockOff  []float64   `json:"clock_off,omitempty"`
	ClockRTT  []float64   `json:"clock_rtt,omitempty"`
	Journal   []obs.Event `json:"journal,omitempty"`
	Final     []float64   `json:"final,omitempty"`
	LaunchStamps
}

// CoordStats counts the coordinator's crash-tolerance events over one run.
type CoordStats struct {
	// Vacated counts rank vacancies declared before a result arrived
	// (connection loss or control-plane silence).
	Vacated int
	// Rejoins counts vacated ranks reclaimed by a higher-epoch hello.
	Rejoins int
	// CustodySaves counts checkpoint frames accepted into custody;
	// CustodyCommits counts the blobs the committer wrote to the durable
	// store. Their ratio is the group commit's coalescing factor.
	CustodySaves   int
	CustodyCommits int
	// CustodyLagSec is the age of the oldest accepted snapshot not yet
	// written (0 when custody is caught up or memory-only).
	CustodyLagSec float64
	// CustodyRestores counts ranks whose checkpoint was recovered from
	// durable custody at coordinator startup.
	CustodyRestores int
}

// Coordinator runs the membership/barrier/result protocol for one run.
type Coordinator struct {
	ln   net.Listener
	spec RunSpec
	cfg  CoordConfig

	custody    *custody
	ackTimeout time.Duration

	mu      sync.Mutex
	members []*coordMember // by rank, each published as it joins
	stats   CoordStats
	closed  bool

	abort   chan struct{} // closed by Close; fails the run loop promptly
	done    chan struct{}
	reports []NodeReport
	runErr  error
}

// coordMember is one joined node from the coordinator's side. The conn and
// epoch are replaced when a respawned node reclaims the rank; gen
// disambiguates the old connection's reader from the new one's.
type coordMember struct {
	rank  int
	addr  string
	epoch int
	gen   int
	conn  net.Conn
	wmu   sync.Mutex // serializes control-frame writes

	// lastSeen is the unix-nano arrival time of the most recent frame on
	// the current connection, feeding control-plane staleness detection.
	lastSeen atomic.Int64
}

func (m *coordMember) write(f *Frame) error {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	_, err := writeFrame(m.conn, nil, f)
	return err
}

// NewCoordinator starts a coordinator listening for cfg.Spec.Procs nodes
// and immediately begins the membership protocol in the background; Wait
// blocks for the outcome.
func NewCoordinator(cfg CoordConfig) (*Coordinator, error) {
	return newCoordinator(cfg, shutdownAckTimeout)
}

// shutdownAckTimeout bounds how long a finished run waits for every node to
// close its coordinator link after the shutdown frame. Only a node that
// hangs inside its own teardown ever meets it; its link is then severed.
const shutdownAckTimeout = 2 * time.Second

func newCoordinator(cfg CoordConfig, ackTimeout time.Duration) (*Coordinator, error) {
	if err := cfg.Spec.Normalize(); err != nil {
		return nil, err
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Minute
	}
	if cfg.NodeTimeout == 0 {
		cfg.NodeTimeout = 10 * time.Second
	}
	if cfg.RejoinWait <= 0 {
		cfg.RejoinWait = 30 * time.Second
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("distnet: coordinator listener: %w", err)
	}
	c := &Coordinator{
		ln:         ln,
		spec:       cfg.Spec,
		cfg:        cfg,
		custody:    newCustody(cfg.Custody, cfg.Spec.Procs),
		ackTimeout: ackTimeout,
		abort:      make(chan struct{}),
		done:       make(chan struct{}),
	}
	// Durable custody: a restarted coordinator resumes the previous
	// incarnation's checkpoints, so relaunched nodes restore mid-run state
	// instead of recomputing from iteration zero. (No frame can reach
	// custody before run starts, so covered is still the seeded count.)
	if c.stats.CustodyRestores = c.custody.covered; c.stats.CustodyRestores > 0 {
		c.logf("custody: restored checkpoints for %d/%d ranks from durable store",
			c.stats.CustodyRestores, c.spec.Procs)
	}
	if cfg.Fleet != nil {
		cfg.Fleet.SetJob(c.spec.Job)
	}
	go c.run()
	return c, nil
}

// Addr returns the coordinator's bound listen address.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Spec returns the normalized run configuration.
func (c *Coordinator) Spec() RunSpec { return c.spec }

// Checkpoint returns the latest snapshot in custody for rank, if any.
func (c *Coordinator) Checkpoint(rank int) ([]byte, bool) { return c.custody.get(rank) }

// CustodyCovered blocks until custody holds a snapshot for every rank —
// the condition for an eviction that resumes uniformly — and reports false
// if the run ends or wait elapses first. Closing the coordinator afterwards
// makes that custody durable before Wait returns.
func (c *Coordinator) CustodyCovered(wait time.Duration) bool { return c.custody.awaitCovered(wait) }

// Stats returns the crash-tolerance counters accumulated so far.
func (c *Coordinator) Stats() CoordStats {
	c.mu.Lock()
	st := c.stats
	c.mu.Unlock()
	st.CustodySaves, st.CustodyCommits, st.CustodyLagSec = c.custody.counters()
	return st
}

// Wait blocks until every node reported its result (returning the reports
// sorted by rank) or the run failed.
func (c *Coordinator) Wait() ([]NodeReport, error) {
	<-c.done
	return c.reports, c.runErr
}

// Close aborts the run: releases the listener and severs every member
// connection (nodes observe a dead coordinator — the shape a coordinator
// crash has from the outside).
func (c *Coordinator) Close() {
	c.mu.Lock()
	closed := c.closed
	c.closed = true
	var conns []net.Conn
	for _, m := range c.members {
		if m != nil && m.conn != nil {
			conns = append(conns, m.conn)
		}
	}
	c.mu.Unlock()
	if !closed {
		close(c.abort)
		_ = c.ln.Close()
		for _, conn := range conns {
			_ = conn.Close()
		}
	}
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// coordEvent is one frame (or read error) from one member's connection.
// gen identifies the connection incarnation, so a replaced connection's
// trailing error cannot vacate the rank its successor now holds.
type coordEvent struct {
	rank int
	gen  int
	f    Frame
	err  error
}

// vacatedRank tracks an unowned rank awaiting a rejoin.
type vacatedRank struct {
	at    time.Time
	cause error
}

// pendingHello is a connection whose hello the acceptor has read. After
// membership a rejoin hello that arrived before any rank was vacated (the
// respawned node can outrace the coordinator's detection of the old
// connection's death) is parked until a vacancy appears.
type pendingHello struct {
	conn  net.Conn
	hello Frame
	at    time.Time
}

// run executes the protocol: accept P hellos, assign ranks in arrival
// order, distribute configs, relay the start barrier, collect checkpoints
// and results, broadcast shutdown — vacating and re-filling ranks as nodes
// crash and rejoin along the way.
func (c *Coordinator) run() {
	// Every non-success exit makes custody durable before done closes: an
	// evictor, a drain and a restarted coordinator all read it right after.
	defer func() {
		c.custody.stop(c.runErr != nil)
		close(c.done)
	}()
	deadline := time.Now().Add(c.cfg.Timeout)
	p := c.spec.Procs

	// One acceptor serves the listener for the whole run, membership and
	// rejoins alike. Each hello is read on its own goroutine, so a silent
	// or garbled connection delays nobody; it is closed at the deadline or
	// on its bad frame. A read hello waits for the run loop to take it, or
	// is closed when the run ends. The acceptor dies with the listener at
	// teardown.
	hellos := make(chan pendingHello)
	go func() {
		_ = c.ln.(*net.TCPListener).SetDeadline(deadline) // a "tcp" listener
		for {
			conn, err := c.ln.Accept()
			if err != nil {
				return
			}
			go func() {
				hello, err := readHello(conn, time.Until(deadline))
				if err != nil {
					conn.Close()
					return
				}
				select {
				case hellos <- pendingHello{conn: conn, hello: hello, at: time.Now()}:
				case <-c.done:
					conn.Close()
				}
			}()
		}
	}()

	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	byRank, err := c.gather(hellos, timer.C)
	if err != nil {
		c.runErr = err
		c.teardown(byRank)
		return
	}

	peers := make([]string, p)
	for _, m := range byRank {
		peers[m.rank] = m.addr
	}
	obsPush := c.cfg.Fleet != nil // invite metrics-snapshot pushes
	for _, m := range byRank {
		ckpt, _ := c.custody.get(m.rank)
		blob := encodeJSON(wireConfig{Rank: m.rank, Peers: peers, Spec: c.spec, Checkpoint: ckpt, ObsPush: obsPush})
		if err := m.write(&Frame{Type: FrameConfig, Blob: blob}); err != nil {
			c.runErr = fmt.Errorf("distnet: sending config to rank %d: %w", m.rank, err)
			c.teardown(byRank)
			return
		}
	}
	c.logf("membership complete: %d nodes, spec %s/%d iters", p, c.spec.App, c.spec.MaxIter)

	// Event pump: one reader per member connection feeding a central
	// channel, stamping control-plane liveness as it goes.
	events := make(chan coordEvent, p*4)
	startReader := func(m *coordMember) {
		conn, gen := m.conn, m.gen
		m.lastSeen.Store(time.Now().UnixNano())
		go func() {
			br := bufio.NewReader(conn)
			for {
				f, err := readFrame(br)
				if err != nil {
					events <- coordEvent{rank: m.rank, gen: gen, err: err}
					return
				}
				m.lastSeen.Store(time.Now().UnixNano())
				events <- coordEvent{rank: m.rank, gen: gen, f: f}
			}
		}()
	}
	for _, m := range byRank {
		startReader(m)
	}

	var (
		arrived = make(map[int]bool) // ranks at the start barrier
		started bool                 // the start barrier was released
		results = make(map[int]*NodeReport)
		acked   = make(map[int]bool) // ranks whose current link reached end-of-stream after their result
		vacated = make(map[int]vacatedRank)
		parked  []pendingHello
	)

	// vacate declares rank ownerless: its connection is closed, the cause
	// retained for the eventual ErrRankLost, and any parked rejoin hello
	// gets a chance to claim it.
	vacate := func(rank int, cause error) {
		if _, dup := vacated[rank]; dup || results[rank] != nil {
			return
		}
		m := byRank[rank]
		_ = m.conn.Close()
		vacated[rank] = vacatedRank{at: time.Now(), cause: cause}
		c.mu.Lock()
		c.stats.Vacated++
		c.mu.Unlock()
		c.logf("rank %d vacated: %v (waiting %v for a rejoin)", rank, cause, c.cfg.RejoinWait)
	}

	// admit hands a vacated rank to a rejoining node: config (with the
	// custody checkpoint and the rejoin flag) goes out, a fresh reader
	// takes over, and peers learn the new listen address via the updated
	// peers slice (later rejoiners dial current addresses).
	admit := func(ph pendingHello) bool {
		rank := -1
		for r := 0; r < p; r++ {
			if _, ok := vacated[r]; ok && ph.hello.Epoch > byRank[r].epoch {
				rank = r
				break
			}
		}
		if rank < 0 {
			return false
		}
		m := byRank[rank]
		// Under c.mu: Close reads member conns from other goroutines.
		c.mu.Lock()
		m.gen++
		m.conn = ph.conn
		m.epoch = ph.hello.Epoch
		m.addr = ph.hello.Addr
		c.stats.Rejoins++
		c.mu.Unlock()
		ckpt, _ := c.custody.get(rank)
		peers[rank] = ph.hello.Addr
		delete(vacated, rank)
		blob := encodeJSON(wireConfig{Rank: rank, Peers: append([]string(nil), peers...), Spec: c.spec,
			Checkpoint: ckpt, ObsPush: obsPush, Rejoin: true})
		if err := m.write(&Frame{Type: FrameConfig, Blob: blob}); err != nil {
			vacate(rank, fmt.Errorf("distnet: sending rejoin config: %w", err))
			return true // the conn was consumed either way
		}
		startReader(m)
		c.logf("rank %d reclaimed by epoch-%d incarnation at %s (%d bytes of custody restored)",
			rank, m.epoch, m.addr, len(ckpt))
		return true
	}

	// Liveness ticks drive both halves of crash detection: silent members
	// are vacated, and vacancies that outlive RejoinWait fail the run.
	tickEvery := c.cfg.RejoinWait / 4
	if c.cfg.NodeTimeout > 0 && c.cfg.NodeTimeout/4 < tickEvery {
		tickEvery = c.cfg.NodeTimeout / 4
	}
	if tickEvery < 10*time.Millisecond {
		tickEvery = 10 * time.Millisecond
	}
	liveness := time.NewTicker(tickEvery)
	defer liveness.Stop()

	fail := func(err error) {
		c.runErr = err
		for _, ph := range parked {
			_ = ph.conn.Close()
		}
		c.teardown(byRank)
	}

	for len(results) < p {
		select {
		case <-c.abort:
			// Close was called: the run is being torn down on purpose.
			// Fail now instead of waiting out the rejoin window on the
			// vacancies the severed connections are about to produce.
			fail(ErrCoordClosed)
			return
		case ev := <-events:
			m := byRank[ev.rank]
			if ev.gen != m.gen {
				continue // stale connection incarnation
			}
			if ev.err != nil {
				if results[ev.rank] != nil {
					acked[ev.rank] = true // closed after its result: nothing left to ack
				} else {
					vacate(ev.rank, fmt.Errorf("connection lost before its result: %w", ev.err))
					// A parked hello may already be waiting for this vacancy.
					for i, ph := range parked {
						if admit(ph) {
							parked = append(parked[:i], parked[i+1:]...)
							break
						}
					}
				}
				continue
			}
			switch ev.f.Type {
			case FrameBarrier:
				if started {
					// A rejoiner reaching the barrier the fleet already
					// passed: release it alone, at once.
					_ = m.write(&Frame{Type: FrameBarrier})
					continue
				}
				if arrived[ev.rank] = true; len(arrived) == p {
					c.logf("start barrier released")
					started = true
					for _, mm := range byRank {
						_ = mm.write(&Frame{Type: FrameBarrier})
					}
				}
			case FrameCheckpoint:
				c.custody.put(ev.rank, ev.f.Blob) // the connection names the rank, not the body
			case FrameObs:
				if c.cfg.Fleet != nil {
					if err := c.cfg.Fleet.Update(ev.rank, ev.f.Blob); err != nil {
						c.logf("refused a metrics push: %v", err)
					}
				}
			case FrameResult:
				var rep NodeReport
				if err := json.Unmarshal(ev.f.Blob, &rep); err != nil {
					fail(fmt.Errorf("distnet: decoding rank %d result: %w", ev.rank, err))
					return
				}
				// Trust the connection, not the body, for who sent it and
				// where it listens; the partition is the frame's raw tail.
				rep.Rank, rep.Addr, rep.Final = ev.rank, peers[ev.rank], ev.f.Final
				results[ev.rank] = &rep
				c.logf("rank %d done: converged=%v iters=%d epoch=%d", ev.rank, rep.Converged, rep.Iters, rep.Epoch)
			}

		case ph := <-hellos:
			if ph.hello.Epoch <= 0 {
				// A fresh (epoch-0) hello after membership closed: not a
				// rejoin — an over-spawned or misdirected node.
				c.logf("rejecting late epoch-0 hello from %s", ph.conn.RemoteAddr())
				_ = ph.conn.Close()
				continue
			}
			if !admit(ph) {
				// No vacancy (yet): the respawn outraced our detection of the
				// old connection dying. Park it; the vacate path retries.
				parked = append(parked, ph)
			}

		case <-liveness.C:
			now := time.Now()
			if c.cfg.NodeTimeout > 0 {
				for _, m := range byRank {
					if results[m.rank] != nil {
						continue
					}
					if _, gone := vacated[m.rank]; gone {
						continue
					}
					if now.Sub(time.Unix(0, m.lastSeen.Load())) > c.cfg.NodeTimeout {
						vacate(m.rank, fmt.Errorf("no control-plane frame for %v: %w", c.cfg.NodeTimeout, ErrNodeSilent))
					}
				}
			}
			// Retry parked hellos against any vacancies, dropping expired ones.
			keep := parked[:0]
			for _, ph := range parked {
				if admit(ph) {
					continue
				}
				if now.Sub(ph.at) > c.cfg.RejoinWait {
					_ = ph.conn.Close()
					continue
				}
				keep = append(keep, ph)
			}
			parked = keep
			for rank, v := range vacated {
				if now.Sub(v.at) > c.cfg.RejoinWait {
					fail(fmt.Errorf("distnet: rank %d: %w: %w", rank, ErrRankLost, v.cause))
					return
				}
			}

		case <-timer.C:
			fail(fmt.Errorf("distnet: run timed out after %v with %d/%d results", c.cfg.Timeout, len(results), p))
			return
		}
	}

	for _, ph := range parked {
		_ = ph.conn.Close()
	}
	for _, m := range byRank {
		_ = m.write(&Frame{Type: FrameShutdown})
	}
	c.awaitAcks(events, byRank, acked)
	c.teardown(byRank)

	c.reports = make([]NodeReport, 0, p)
	for rank := 0; rank < p; rank++ {
		c.reports = append(c.reports, *results[rank])
	}
}

// awaitAcks is the tail of an acked shutdown. A node closes its coordinator
// link only after its own mesh is down, so end-of-stream on a member's
// current connection is the ack that tearing down can no longer cut a peer
// off; acked already holds the ranks whose link ended after their result.
// Checkpoints still in flight are kept meanwhile. A Close, or ackTimeout
// (a node hung inside its own teardown), ends the wait early; the caller
// then severs whatever is left.
func (c *Coordinator) awaitAcks(events <-chan coordEvent, byRank []*coordMember, acked map[int]bool) {
	ackBy := time.NewTimer(c.ackTimeout)
	defer ackBy.Stop()
	for len(acked) < len(byRank) {
		select {
		case ev := <-events:
			switch {
			case ev.gen != byRank[ev.rank].gen: // a replaced connection's tail is not this member's ack
			case ev.err != nil:
				acked[ev.rank] = true
			case ev.f.Type == FrameCheckpoint:
				c.custody.put(ev.rank, ev.f.Blob)
			}
		case <-c.abort:
			return
		case <-ackBy.C:
			c.logf("shutdown: %d/%d nodes closed their link within %v; severing the rest", len(acked), len(byRank), c.ackTimeout)
			return
		}
	}
}

// gather takes the first P hellos the acceptor hands over, assigning
// ranks in arrival order, until the run deadline fires. Each member is
// published to c.members as it joins, so Close severs it; Close itself ends
// the wait with ErrCoordClosed. It returns the members by rank (nil where
// none joined).
func (c *Coordinator) gather(hellos <-chan pendingHello, deadline <-chan time.Time) ([]*coordMember, error) {
	p := c.spec.Procs
	members := make([]*coordMember, p)
	c.mu.Lock()
	c.members = members
	c.mu.Unlock()
	for rank := 0; rank < p; rank++ {
		var ph pendingHello
		select {
		case ph = <-hellos:
		case <-c.abort:
			return members, ErrCoordClosed
		case <-deadline:
			return members, fmt.Errorf("distnet: run timed out after %v waiting for %d more nodes", c.cfg.Timeout, p-rank)
		}
		m := &coordMember{rank: rank, addr: ph.hello.Addr, epoch: ph.hello.Epoch, conn: ph.conn}
		m.lastSeen.Store(time.Now().UnixNano())
		c.mu.Lock()
		members[rank] = m
		c.mu.Unlock()
		c.logf("node %d joined from %s (peer addr %s, epoch %d)", rank, ph.conn.RemoteAddr(), m.addr, m.epoch)
	}
	return members, nil
}

// teardown closes every member connection and the listener.
func (c *Coordinator) teardown(members []*coordMember) {
	for _, m := range members {
		if m != nil && m.conn != nil {
			_ = m.conn.Close()
		}
	}
	c.Close()
}
