package distnet

// Per-peer TCP connection management: dialing with retry and exponential
// backoff, a buffered writer goroutine per link, heartbeats, and dead-peer
// detection. One TCP connection serves each unordered pair of processors
// (the lower rank accepts, the higher rank dials); both directions flow on
// it.

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"specomp/internal/inbox"
	"specomp/internal/trace"
)

// Connection-state machine of one peer link:
//
//	dialing ──dial ok──▶ handshaking ──hello──▶ up ──read error/close──▶ down
//	   │  ▲                                     │
//	   └──┘ retry with exponential backoff      └─ heartbeat staleness ⇒ suspected
//
// "suspected" is soft: PeerDown reports it to the engine's failure
// detector, but the link keeps trying until a hard read/write error lands.

// dialRetry dials addr until it succeeds or total elapses, backing off
// exponentially from 25 ms to 1 s between attempts. It tolerates the target
// not listening yet — nodes of a run start in arbitrary order.
func dialRetry(addr string, total time.Duration, logf func(string, ...any)) (net.Conn, error) {
	deadline := time.Now().Add(total)
	backoff := 25 * time.Millisecond
	var lastErr error
	for attempt := 0; ; attempt++ {
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, fmt.Errorf("distnet: dialing %s: %w", addr, lastErr)
		}
		c, err := net.DialTimeout("tcp", addr, remain)
		if err == nil {
			return c, nil
		}
		lastErr = err
		if attempt == 0 && logf != nil {
			logf("dial %s failed (%v), retrying with backoff", addr, err)
		}
		time.Sleep(backoff)
		backoff *= 2
		if backoff > time.Second {
			backoff = time.Second
		}
	}
}

// wireOpts is a link's frame shape plus its local instrumentation handle.
// Peer links beacon with the clock tail; the coordinator link does not.
type wireOpts struct {
	clock bool // timestamped heartbeats, beaconed even when data flows
	obs   *linkObs
	rows  *inbox.Inbox // lent the payload rows of outbound data (nil: none)
}

// peerConn is one live link to a peer (or to the coordinator, rank -1).
type peerConn struct {
	rank int
	// epoch is the peer incarnation this link was opened with; a
	// replacement connection must present a strictly higher one (stale
	// reconnect attempts from a dead incarnation are refused).
	epoch int
	conn  net.Conn
	opts  wireOpts

	// out feeds the writer goroutine. Sends block when full — TCP
	// backpressure, propagated to the engine. Liveness never competes with
	// this queue: every outbound frame refreshes the peer's staleness
	// clock, and explicit heartbeats are only emitted on idle links.
	out  chan Frame
	stop chan struct{} // closed once (via closeOnce), tears the writer down
	done chan struct{} // closed by the writer on exit
	// spare returns encoded checkpoint blobs from the writer to coordStore.Save
	// for reuse. Coordinator link only (nil elsewhere): two slots, one blob
	// being encoded while the engine fills the next.
	spare chan []byte

	closeOnce sync.Once

	// lastSeen is the unix-nano receive time of the most recent frame,
	// maintained by the owner's reader; it feeds heartbeat-staleness
	// detection.
	lastSeen atomic.Int64
	// lastSent is the unix-nano enqueue time of the most recent outbound
	// frame; the heartbeater skips beacons while data traffic is already
	// proving liveness (piggybacked heartbeats).
	lastSent atomic.Int64
	// framesSent counts frames accepted onto the send queue — every one of
	// them reaches the socket unless the link dies first. Counted at enqueue
	// rather than by the writer, so the total is exact the moment the engine
	// returns and repeats between identical runs.
	framesSent atomic.Int64
	// down latches on a hard read/write error or remote close.
	down atomic.Bool

	// Clock-sync state (clock links). The reader stores the last stamp the
	// peer sent plus its local arrival time; the next outbound beacon echoes
	// them so the peer can close an NTP-style four-timestamp exchange. est
	// folds in completed exchanges this side observes.
	clkMu      sync.Mutex
	rxPeerSend float64 // peer's send stamp of the last timestamped beacon seen
	rxLocal    float64 // local unix time that beacon arrived
	est        trace.OffsetEstimator
}

func newPeerConn(rank int, conn net.Conn, outCap int, opts wireOpts) *peerConn {
	pc := &peerConn{
		rank: rank,
		conn: conn,
		opts: opts,
		out:  make(chan Frame, outCap),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if rank < 0 {
		pc.spare = make(chan []byte, 2)
	}
	now := time.Now().UnixNano()
	pc.lastSeen.Store(now)
	pc.lastSent.Store(now)
	go pc.writer()
	return pc
}

// send enqueues a frame for transmission, blocking when the link is
// congested. Frames to a link already torn down are dropped — exactly what
// a crashed workstation does with packets addressed to it.
func (pc *peerConn) send(f Frame) {
	if pc.down.Load() {
		return
	}
	pc.lastSent.Store(time.Now().UnixNano())
	pc.opts.obs.setQueueDepth(len(pc.out))
	select {
	case pc.out <- f:
		pc.framesSent.Add(1)
	case <-pc.stop:
	case <-pc.done: // the writer died on a hard error; nothing will drain the queue
	}
}

// writer drains the outgoing queue through one bufio.Writer, flushing
// whenever the queue momentarily empties (message boundaries coalesce under
// load, but nothing lingers unflushed). Once encoded, a message's payload row
// goes back to the inbox that lent it, a batch frame's message slice back to
// the batch pool, and a checkpoint frame's blob back to its sender (spare;
// dropped when the slots are full or absent).
func (pc *peerConn) writer() {
	defer close(pc.done)
	bw := bufio.NewWriterSize(pc.conn, 64<<10)
	enc := NewEncoder(bw, false)
	write := func(f *Frame) error {
		err := enc.Encode(f)
		switch {
		case f.Type == FrameData:
			pc.opts.rows.Release(f.Msg.Data)
		case f.Batch != nil:
			for i := range f.Batch {
				pc.opts.rows.Release(f.Batch[i].Data)
			}
			releaseBatch(f.Batch)
		case f.Type == FrameCheckpoint:
			select {
			case pc.spare <- f.Blob:
			default:
			}
		}
		if err == nil {
			pc.opts.obs.noteFrame()
		}
		return err
	}
	for {
		select {
		case f := <-pc.out:
			err := write(&f)
			if err == nil && len(pc.out) == 0 {
				err = bw.Flush()
			}
			if err != nil {
				pc.down.Store(true)
				return
			}
		case <-pc.stop:
			// Drain anything enqueued before the close, then flush.
			for {
				select {
				case f := <-pc.out:
					if err := write(&f); err != nil {
						pc.down.Store(true)
						return
					}
				default:
					_ = bw.Flush()
					return
				}
			}
		}
	}
}

// close tears the link down: stops the writer (draining queued frames
// first) and closes the socket. A short write deadline unblocks a writer
// stuck flushing into a dead peer's full TCP window. Idempotent and safe to
// race — the coordinator's shutdown broadcast and a node's own teardown may
// both reach a link; every caller blocks until the writer has exited and
// the socket is closed.
func (pc *peerConn) close() {
	pc.closeOnce.Do(func() {
		_ = pc.conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
		close(pc.stop)
	})
	<-pc.done
	_ = pc.conn.Close()
}

// alive reports whether the link looks healthy: no hard error, and a frame
// seen within timeout (0 disables the staleness check).
func (pc *peerConn) alive(timeout time.Duration) bool {
	if pc.down.Load() {
		return false
	}
	if timeout <= 0 {
		return true
	}
	return time.Since(time.Unix(0, pc.lastSeen.Load())) <= timeout
}

// touch records frame receipt for staleness detection.
func (pc *peerConn) touch() { pc.lastSeen.Store(time.Now().UnixNano()) }

// heartbeater emits liveness beacons every interval until stop closes —
// but only on idle links. Any outbound frame within the last interval
// already refreshes the peer's staleness clock (piggybacked liveness), so
// a link saturated with data pays nothing; and when a beacon is due, it is
// enqueued with the same blocking semantics as data. A backpressured link
// thus delivers its beacon as soon as the queue drains instead of silently
// starving its own liveness — the failure mode the old drop-on-congestion
// beacons had.
func (pc *peerConn) heartbeater(interval time.Duration) {
	if interval <= 0 {
		return
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			// Clock-sync links beacon unconditionally — the stamps are the
			// offset estimator's sample stream, and their cost is one tiny
			// frame per interval. Plain links keep piggybacked liveness.
			if !pc.opts.clock && time.Since(time.Unix(0, pc.lastSent.Load())) < interval {
				continue // data traffic is the heartbeat
			}
			pc.send(pc.beacon())
			pc.opts.obs.noteHeartbeat()
		case <-pc.stop:
			return
		}
	}
}

// beacon builds the next outbound heartbeat. On clock-sync links it carries
// the three-stamp tail: our send time plus an echo of the last stamp the
// peer sent and when it arrived here, which lets the peer close a
// four-timestamp exchange on receipt.
func (pc *peerConn) beacon() Frame {
	f := Frame{Type: FrameHeartbeat}
	if pc.opts.clock {
		pc.clkMu.Lock()
		f.Clock = [3]float64{unixNow(), pc.rxPeerSend, pc.rxLocal}
		pc.clkMu.Unlock()
	}
	return f
}

// noteHeartbeat ingests a received heartbeat's clock tail: remembers the
// peer's stamp for echoing, and when the beacon echoes one of ours, folds
// the completed exchange into the offset estimate.
func (pc *peerConn) noteHeartbeat(clk [3]float64) {
	if clk[0] == 0 {
		return // no tail
	}
	now := unixNow()
	pc.clkMu.Lock()
	pc.rxPeerSend, pc.rxLocal = clk[0], now
	pc.clkMu.Unlock()
	if clk[1] != 0 {
		// t1 = our stamp the peer echoed, t2 = peer's arrival time of it,
		// t3 = peer's send time of this beacon, t4 = now.
		pc.est.AddSample(clk[1], clk[2], clk[0], now)
		if off, rtt, ok := pc.est.Offset(); ok {
			pc.opts.obs.setClock(off, rtt)
		}
	}
}

// clockOffset reports the link's current offset estimate (peer clock minus
// local clock), the RTT of the sample behind it, and whether one exists.
func (pc *peerConn) clockOffset() (offset, rtt float64, ok bool) {
	return pc.est.Offset()
}

// readHello performs the receiving half of the link handshake with a
// deadline, returning the peer's hello frame.
func readHello(conn net.Conn, timeout time.Duration) (Frame, error) {
	if timeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(timeout))
		defer conn.SetReadDeadline(time.Time{})
	}
	f, err := readFrame(conn)
	if err != nil {
		return Frame{}, fmt.Errorf("distnet: reading hello: %w", err)
	}
	if f.Type != FrameHello {
		return Frame{}, fmt.Errorf("distnet: expected hello, got %v frame", f.Type)
	}
	return f, nil
}
