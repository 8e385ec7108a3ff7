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
// carrying epoch > 0 reclaims the lowest vacated rank whose last holder is
// older — the respawned process is stateless until configured, so any such
// vacancy fits — and receives
// its config plus the latest custody checkpoint to restore from. Survivors
// bridge the gap on speculation (the engine's MaxCrashOverrun path). Only a
// vacancy nobody reclaims within RejoinWait fails the run, with an error
// naming both the loss (ErrRankLost) and its cause (e.g. ErrNodeSilent).

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"slices"
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

	restores         int          // ranks seeded from durable custody at startup
	vacated, rejoins atomic.Int64 // CoordStats counters the run loop bumps
	closeOnce        sync.Once

	abort   chan struct{} // closed by Close; fails the run loop promptly
	done    chan struct{}
	reports []NodeReport
	runErr  error
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
	if c.restores = c.custody.covered; c.restores > 0 {
		c.logf("custody: restored checkpoints for %d/%d ranks from durable store", c.restores, c.spec.Procs)
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
	st := CoordStats{Vacated: int(c.vacated.Load()), Rejoins: int(c.rejoins.Load()), CustodyRestores: c.restores}
	st.CustodySaves, st.CustodyCommits, st.CustodyLagSec = c.custody.counters()
	return st
}

// Wait blocks until every node reported its result (returning the reports
// sorted by rank) or the run failed.
func (c *Coordinator) Wait() ([]NodeReport, error) {
	<-c.done
	return c.reports, c.runErr
}

// Close aborts the run: it releases the listener, and the run loop severs
// every member link (nodes observe a dead coordinator — the shape a
// coordinator crash has from the outside) before Wait returns.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		close(c.abort)
		_ = c.ln.Close()
	})
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// pendingHello is a connection whose hello the acceptor has read.
type pendingHello struct {
	conn  net.Conn
	hello Frame
	at    time.Time
}

// vacancy is a rank whose holder died or went silent before its result:
// since when, the epoch of the holder that left it, and why.
type vacancy struct {
	at    time.Time
	epoch int
	cause error
}

// roster is the run loop's state: who holds each rank over which link,
// where each rank listens, how far each has got, and the rejoin hellos
// waiting for a vacancy. Only the run loop touches it.
type roster struct {
	c       *Coordinator
	links   []*peerConn // each rank's current link; nil while free or vacated
	peers   []string    // each rank's peer listen address, from its holder's hello
	joined  int         // ranks taken; membership closes when it reaches P
	events  chan linkEvent
	arrived map[int]bool // ranks at the start barrier
	started bool         // the start barrier was released
	results map[int]*NodeReport
	acked   map[int]bool // ranks whose current link ended after their result
	vacated map[int]vacancy
	parked  []pendingHello
}

func newRoster(c *Coordinator) *roster {
	p := c.spec.Procs
	return &roster{
		c: c, links: make([]*peerConn, p), peers: make([]string, p),
		events:  make(chan linkEvent, 4*p), // room for a few frames per member, so a pump seldom waits on the loop
		arrived: make(map[int]bool), results: make(map[int]*NodeReport),
		acked: make(map[int]bool), vacated: make(map[int]vacancy),
	}
}

// open reports whether membership is still open.
func (r *roster) open() bool { return r.joined < len(r.links) }

// claim is the coordinator's one admission rule, the twin of a node's
// install: the rank a hello may take, or -1. While membership is open a
// hello takes the lowest free rank, whatever its epoch. Once it has closed,
// a respawned incarnation (epoch > 0) claims the lowest vacated rank whose
// last holder's epoch is lower, and waits parked when there is none — the
// respawn can outrace the coordinator noticing the old link die. An epoch-0
// hello after membership is an over-spawned or misdirected node: refuse.
func (r *roster) claim(hello Frame) (rank int, refuse bool) {
	if r.open() {
		return slices.Index(r.links, nil), false
	}
	if hello.Epoch <= 0 {
		return -1, true
	}
	for rank := range r.links {
		if v, ok := r.vacated[rank]; ok && hello.Epoch > v.epoch {
			return rank, false
		}
	}
	return -1, false
}

// admit settles a hello by claim: it seats the connection on a rank or
// closes it, and reports false, leaving it to the caller, when it must wait
// parked.
func (r *roster) admit(ph pendingHello) bool {
	rank, refuse := r.claim(ph.hello)
	if refuse {
		r.c.logf("rejecting late epoch-0 hello from %s", ph.conn.RemoteAddr())
		_ = ph.conn.Close()
		return true
	}
	if rank < 0 {
		return false
	}
	c := r.c
	pc := newPeerConn(rank, ph.conn, 0, wireOpts{direct: true})
	pc.epoch = ph.hello.Epoch
	r.links[rank], r.peers[rank] = pc, ph.hello.Addr
	go pc.pump(r.events, c.done)
	if r.open() {
		r.joined++
		c.logf("node %d joined from %s (peer addr %s, epoch %d)", rank, ph.conn.RemoteAddr(), ph.hello.Addr, pc.epoch)
		if !r.open() {
			for rank, pc := range r.links {
				pc.touch() // the node is silent until its mesh is up
				pc.send(r.config(rank, false))
			}
			c.logf("membership complete: %d nodes, spec %s/%d iters", len(r.links), c.spec.App, c.spec.MaxIter)
		}
		return true
	}
	// A rejoin: the rank's latest custody checkpoint goes out with the
	// rejoin flag, and peers learn the new listen address from the updated
	// peers (later rejoiners dial current addresses).
	delete(r.vacated, rank)
	c.rejoins.Add(1)
	pc.send(r.config(rank, true))
	ckpt, _ := c.custody.get(rank)
	c.logf("rank %d reclaimed by epoch-%d incarnation at %s (%d bytes of custody restored)",
		rank, pc.epoch, ph.hello.Addr, len(ckpt))
	return true
}

// config is rank's config frame: the membership, the spec, the rank's
// custody checkpoint if any, and whether a mid-run rejoiner takes it.
func (r *roster) config(rank int, rejoin bool) Frame {
	ckpt, _ := r.c.custody.get(rank)
	return Frame{Type: FrameConfig, Blob: encodeJSON(wireConfig{Rank: rank, Peers: r.peers, Spec: r.c.spec,
		Checkpoint: ckpt, ObsPush: r.c.cfg.Fleet != nil, Rejoin: rejoin})}
}

// retryParked offers every parked hello to claim again, dropping those
// parked longer than RejoinWait.
func (r *roster) retryParked(now time.Time) {
	keep := r.parked[:0]
	for _, ph := range r.parked {
		switch {
		case r.admit(ph):
		case now.Sub(ph.at) > r.c.cfg.RejoinWait:
			_ = ph.conn.Close()
		default:
			keep = append(keep, ph)
		}
	}
	r.parked = keep
}

// vacate retires rank's link, which died or went silent before its result.
// While membership is open the rank is simply free again. After, it is a
// vacancy: the cause is kept for the eventual ErrRankLost, and a parked
// rejoin hello gets its chance to claim it.
func (r *roster) vacate(rank int, cause error) {
	pc := r.links[rank]
	r.links[rank] = nil
	pc.close() // a direct link has no writer to wait for
	if r.open() {
		r.joined--
		r.c.logf("node %d left before membership closed: %v", rank, cause)
		return
	}
	r.vacated[rank] = vacancy{at: time.Now(), epoch: pc.epoch, cause: cause}
	r.c.vacated.Add(1)
	r.c.logf("rank %d vacated: %v (waiting %v for a rejoin)", rank, cause, r.c.cfg.RejoinWait)
	r.retryParked(time.Now())
}

// onEvent takes one frame, or the end of the stream, from a member link. A
// link that no longer holds its rank (vacated, or replaced by a rejoin) is
// ignored; a current link's end is its holder's shutdown ack when the
// result is in, and vacates the rank otherwise.
func (r *roster) onEvent(ev linkEvent) error {
	rank := ev.pc.rank
	if ev.pc != r.links[rank] {
		return nil
	}
	if ev.err != nil {
		if r.results[rank] != nil {
			r.acked[rank] = true
		} else {
			r.vacate(rank, fmt.Errorf("connection lost before its result: %w", ev.err))
		}
		return nil
	}
	c := r.c
	switch ev.f.Type {
	case FrameBarrier:
		if r.started {
			// A rejoiner reaching the barrier the fleet already passed:
			// release it alone, at once.
			ev.pc.send(Frame{Type: FrameBarrier})
			break
		}
		if r.arrived[rank] = true; len(r.arrived) == len(r.links) {
			c.logf("start barrier released")
			r.started = true
			for _, pc := range r.links {
				if pc != nil {
					pc.send(Frame{Type: FrameBarrier})
				}
			}
		}
	case FrameCheckpoint:
		c.custody.put(rank, ev.f.Blob) // the link names the rank, not the body
	case FrameObs:
		if c.cfg.Fleet != nil {
			if err := c.cfg.Fleet.Update(rank, ev.f.Blob); err != nil {
				c.logf("refused a metrics push: %v", err)
			}
		}
	case FrameResult:
		var rep NodeReport
		if err := json.Unmarshal(ev.f.Blob, &rep); err != nil {
			return fmt.Errorf("distnet: decoding rank %d result: %w", rank, err)
		}
		// Trust the link, not the body, for who sent it and where it
		// listens; the partition is the frame's raw tail.
		rep.Rank, rep.Addr, rep.Final = rank, r.peers[rank], ev.f.Final
		r.results[rank] = &rep
		c.logf("rank %d done: converged=%v iters=%d epoch=%d", rank, rep.Converged, rep.Iters, rep.Epoch)
	}
	return nil
}

// tick drives both halves of crash detection: once membership has closed,
// a member without a result whose link is down or silent past NodeTimeout
// is vacated; a parked hello or a vacancy older than RejoinWait is dropped,
// the vacancy failing the run.
func (r *roster) tick(now time.Time) error {
	if timeout := r.c.cfg.NodeTimeout; timeout > 0 && !r.open() {
		for rank, pc := range r.links {
			if pc != nil && r.results[rank] == nil && !pc.alive(timeout) {
				r.vacate(rank, fmt.Errorf("no control-plane frame for %v: %w", timeout, ErrNodeSilent))
			}
		}
	}
	r.retryParked(now)
	for rank, v := range r.vacated {
		if now.Sub(v.at) > r.c.cfg.RejoinWait {
			return fmt.Errorf("distnet: rank %d: %w: %w", rank, ErrRankLost, v.cause)
		}
	}
	return nil
}

// run executes the protocol: seat P hellos in arrival order, distribute
// configs, relay the start barrier, collect checkpoints and results,
// broadcast shutdown and wait for the acks — vacating and re-filling ranks
// as nodes crash and rejoin along the way.
func (c *Coordinator) run() {
	// Every non-success exit makes custody durable before done closes: an
	// evictor, a drain and a restarted coordinator all read it right after.
	defer func() {
		c.custody.stop(c.runErr != nil)
		close(c.done)
	}()
	deadline := time.Now().Add(c.cfg.Timeout)

	// The listener serves membership and rejoins alike for the whole run.
	// A read hello waits for the run loop to take it, or is closed when the
	// run ends; a silent connection is closed at the deadline at the latest.
	hellos := make(chan pendingHello)
	_ = c.ln.(*net.TCPListener).SetDeadline(deadline) // a "tcp" listener
	go acceptHellos(c.ln, func() time.Duration { return time.Until(deadline) }, func(conn net.Conn, hello Frame) bool {
		select {
		case hellos <- pendingHello{conn: conn, hello: hello, at: time.Now()}:
			return true
		case <-c.done:
			return false
		}
	})

	r := newRoster(c)
	c.runErr = c.serve(r, hellos, deadline)
	// Sever whatever the run still holds.
	for _, pc := range r.links {
		if pc != nil {
			pc.close()
		}
	}
	for _, ph := range r.parked {
		_ = ph.conn.Close()
	}
	c.Close()
	if c.runErr == nil {
		for rank := range r.links {
			c.reports = append(c.reports, *r.results[rank])
		}
	}
}

// serve is the run's one event loop, from the first hello to the last
// shutdown ack. Once every result is in it broadcasts shutdown and enters
// its shutdown phase: a node closes its coordinator link only after its own
// mesh is down, so the end of a member's current link is the ack that
// tearing down can no longer cut a peer off. In that phase checkpoints
// still in flight are kept, a retired link's end is no ack, a link that
// ended after its result counts from the start, and Close, ackTimeout (a
// node hung inside its own teardown) or the run deadline ends the wait
// early without failing the run; the caller then severs whatever is left.
func (c *Coordinator) serve(r *roster, hellos <-chan pendingHello, deadline time.Time) error {
	p := len(r.links)
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	var ackBy <-chan time.Time // nil until the shutdown phase

	// Liveness ticks drive crash detection (tick).
	tickEvery := c.cfg.RejoinWait / 4
	if c.cfg.NodeTimeout > 0 {
		tickEvery = min(tickEvery, c.cfg.NodeTimeout/4)
	}
	liveness := time.NewTicker(max(tickEvery, 10*time.Millisecond))
	defer liveness.Stop()

	for {
		if ackBy == nil && len(r.results) == p {
			for _, pc := range r.links {
				pc.send(Frame{Type: FrameShutdown})
			}
			ackBy = time.After(c.ackTimeout)
		}
		if ackBy != nil && len(r.acked) == p {
			return nil
		}
		select {
		case <-c.abort:
			// Close was called: the run is being torn down on purpose. Fail
			// now instead of waiting out the rejoin window on the vacancies
			// the severed links are about to produce — unless every result
			// is already in.
			if ackBy != nil {
				return nil
			}
			return ErrCoordClosed
		case ev := <-r.events:
			if err := r.onEvent(ev); err != nil {
				return err
			}
		case ph := <-hellos:
			if !r.admit(ph) {
				r.parked = append(r.parked, ph)
			}
		case now := <-liveness.C:
			if err := r.tick(now); err != nil {
				return err
			}
		case <-timer.C:
			switch {
			case ackBy != nil:
				return nil
			case r.open():
				return fmt.Errorf("distnet: run timed out after %v waiting for %d more nodes", c.cfg.Timeout, p-r.joined)
			}
			return fmt.Errorf("distnet: run timed out after %v with %d/%d results", c.cfg.Timeout, len(r.results), p)
		case <-ackBy:
			c.logf("shutdown: %d/%d nodes closed their link within %v; severing the rest", len(r.acked), p, c.ackTimeout)
			return nil
		}
	}
}
