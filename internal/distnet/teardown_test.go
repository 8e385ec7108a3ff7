package distnet

// Teardown-by-handshake tests. The protocol-level ones drive the real
// coordinator with scripted nodes (raw control connections that speak just
// enough of the protocol to finish a run), so the test decides exactly when
// each link closes; the ack loop itself is also driven directly with
// synthetic events where the schedule must be exact.

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"specomp/internal/checkpoint"
	"specomp/internal/inbox/inboxtest"
	"specomp/internal/netmodel"
)

// scriptedNode is one fake node's control connection.
type scriptedNode struct {
	t    testing.TB
	conn net.Conn
	br   *bufio.Reader
	rank int
}

// joinScripted dials the coordinator and says hello.
func joinScripted(t testing.TB, addr string) *scriptedNode {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	n := &scriptedNode{t: t, conn: conn, br: bufio.NewReader(conn)}
	n.send(Frame{Type: FrameHello, Rank: -1, Addr: conn.LocalAddr().String()})
	return n
}

func (n *scriptedNode) send(f Frame) {
	n.t.Helper()
	if _, err := writeFrame(n.conn, nil, &f); err != nil {
		n.t.Fatalf("scripted node: writing %v: %v", f.Type, err)
	}
}

// expect reads frames until one of type ft arrives.
func (n *scriptedNode) expect(ft FrameType) Frame {
	n.t.Helper()
	for {
		f, err := readFrame(n.br)
		if err != nil {
			n.t.Fatalf("scripted node: waiting for %v: %v", ft, err)
		}
		if f.Type == ft {
			return f
		}
	}
}

// scriptedFleet joins procs scripted nodes and walks them through config
// and the start barrier; each is left where its engine would start.
func scriptedFleet(t testing.TB, coord *Coordinator) []*scriptedNode {
	t.Helper()
	nodes := make([]*scriptedNode, coord.Spec().Procs)
	for i := range nodes {
		nodes[i] = joinScripted(t, coord.Addr())
	}
	for _, n := range nodes {
		var wc wireConfig
		if err := json.Unmarshal(n.expect(FrameConfig).Blob, &wc); err != nil {
			t.Fatal(err)
		}
		n.rank = wc.Rank
		n.send(Frame{Type: FrameBarrier})
	}
	for _, n := range nodes {
		n.expect(FrameBarrier)
	}
	return nodes
}

// report sends every node's result and returns the instant just before the
// last one was written.
func report(nodes []*scriptedNode) (last time.Time) {
	for _, n := range nodes {
		last = time.Now()
		n.send(Frame{Type: FrameResult, Blob: encodeJSON(NodeReport{Rank: n.rank, Converged: true, Iters: 1})})
	}
	return last
}

func scriptedCoordinator(t testing.TB, procs int, ackTimeout time.Duration, custody checkpoint.Store) *Coordinator {
	t.Helper()
	coord, err := newCoordinator(CoordConfig{
		Spec: RunSpec{App: "heat", Procs: procs, MaxIter: 1}, Timeout: time.Minute, Custody: custody,
	}, ackTimeout)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	return coord
}

// TestWaitReturnsPromptlyAfterLastResult: on a real in-process 4-node fleet
// Wait returns within 25 ms of the last result — the shutdown is a
// handshake, not a linger. Scheduling noise can only add to the gap, so the
// best of three runs is what is judged.
func TestWaitReturnsPromptlyAfterLastResult(t *testing.T) {
	best := time.Hour
	for try := 0; try < 3 && best >= 25*time.Millisecond; try++ {
		spec := RunSpec{App: "heat", Procs: 4, MaxIter: 40, FW: 1, Theta: 1e-3, Rows: 16, Cols: 8}
		coord, err := NewCoordinator(CoordConfig{Spec: spec, Timeout: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		var reports []NodeReport
		var waitErr error
		returned := make(chan time.Time, 1)
		go func() {
			reports, waitErr = coord.Wait()
			returned <- time.Now()
		}()
		launchNodes(t, spec.Procs, func(int) NodeConfig { return NodeConfig{Coord: coord.Addr()} })
		at := <-returned
		coord.Close()
		if waitErr != nil {
			t.Fatal(waitErr)
		}
		var lastResult float64
		for _, rep := range reports {
			lastResult = max(lastResult, rep.StartUnix+rep.WallSec)
			if rep.JoinedUnix == 0 || rep.JoinedUnix > rep.MeshUnix || rep.MeshUnix > rep.ReleasedUnix || rep.ReleasedUnix > rep.StartUnix {
				t.Errorf("rank %d launch stamps out of order: joined %.6f mesh %.6f released %.6f iter0 %.6f",
					rep.Rank, rep.JoinedUnix, rep.MeshUnix, rep.ReleasedUnix, rep.StartUnix)
			}
		}
		best = min(best, at.Sub(time.Unix(0, int64(lastResult*1e9))))
	}
	if best >= 25*time.Millisecond {
		t.Errorf("Wait returned %v after the last result, want < 25ms", best)
	}
}

// TestFleetReleasesInboxTimers: an in-process fleet whose messages carry a
// hold owes them to each node's inbox timer; once the run is over and the
// coordinator closed, no goroutine and no timer descriptor is left.
func TestFleetReleasesInboxTimers(t *testing.T) {
	before := inboxtest.HeldNow()
	spec := RunSpec{App: "heat", Procs: 3, MaxIter: 30, FW: 1, Theta: 1e-3, Rows: 12, Cols: 8}
	coord, err := NewCoordinator(CoordConfig{Spec: spec, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	launchNodes(t, spec.Procs, func(rank int) NodeConfig {
		return NodeConfig{Coord: coord.Addr(), Faults: netmodel.Fixed{D: 0.001}, FaultSeed: int64(rank)}
	})
	if _, err := coord.Wait(); err != nil {
		t.Fatal(err)
	}
	coord.Close()
	inboxtest.Released(t, before)
}

// TestShutdownAckTimeoutBoundsAHungMember: a member that never closes its
// link delays a finished run by the ack timeout and no longer; the run still
// succeeds, and the hung member's link is severed.
func TestShutdownAckTimeoutBoundsAHungMember(t *testing.T) {
	const ackTimeout = 60 * time.Millisecond
	coord := scriptedCoordinator(t, 2, ackTimeout, nil)
	nodes := scriptedFleet(t, coord)
	lastResult := report(nodes)
	nodes[0].expect(FrameShutdown)
	nodes[0].conn.Close() // the well-behaved member acks
	nodes[1].expect(FrameShutdown)

	reports, err := coord.Wait()
	waited := time.Since(lastResult)
	if err != nil || len(reports) != 2 {
		t.Fatalf("run with a hung member: %d reports, err %v", len(reports), err)
	}
	if waited < ackTimeout {
		t.Errorf("Wait returned after %v, before the %v ack timeout, with a link still open", waited, ackTimeout)
	}
	if _, err := readFrame(nodes[1].br); err == nil {
		t.Error("hung member's link still delivers frames after Wait returned")
	}
}

// TestCloseDuringAckWaitReturnsPromptly: Close cuts the ack wait short, and
// a run whose results were all in still reports success.
func TestCloseDuringAckWaitReturnsPromptly(t *testing.T) {
	coord := scriptedCoordinator(t, 2, time.Hour, nil) // only Close can end this wait
	nodes := scriptedFleet(t, coord)
	report(nodes)
	for _, n := range nodes {
		n.expect(FrameShutdown) // the coordinator is now waiting for acks nobody sends
	}
	coord.Close()
	reports, err := coord.Wait()
	if err != nil || len(reports) != 2 {
		t.Fatalf("closed during the ack wait: %d reports, err %v", len(reports), err)
	}
}

// TestCheckpointDuringAckWaitIsKept: a checkpoint frame that was still in
// flight when the shutdown went out lands in custody.
func TestCheckpointDuringAckWaitIsKept(t *testing.T) {
	coord := scriptedCoordinator(t, 2, time.Minute, nil)
	nodes := scriptedFleet(t, coord)
	report(nodes)
	for _, n := range nodes {
		n.expect(FrameShutdown)
		n.send(Frame{Type: FrameCheckpoint, Rank: n.rank, Blob: snap(n.rank, 0, 41)})
		n.conn.Close()
	}
	if _, err := coord.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if blob, ok := coord.Checkpoint(n.rank); !ok || orderOf(t, blob) != [2]int{0, 41} {
			t.Errorf("rank %d: late checkpoint not in custody", n.rank)
		}
	}
	if st := coord.Stats(); st.CustodySaves != 2 {
		t.Errorf("CustodySaves = %d, want 2", st.CustodySaves)
	}
}

// TestNonSuccessWaitIsDurable: when a run is aborted, Wait returns only
// after the newest snapshot accepted for every rank has reached the store
// and the store has been synced — what an evictor, a drain and a restarted
// coordinator rely on.
func TestNonSuccessWaitIsDurable(t *testing.T) {
	g := newGatedStore()
	coord := scriptedCoordinator(t, 2, time.Minute, g)
	nodes := scriptedFleet(t, coord)
	nodes[0].send(Frame{Type: FrameCheckpoint, Blob: snap(nodes[0].rank, 0, 1)})
	<-g.entered // the committer is stuck on the first write from here on
	for it := 2; it <= 3; it++ {
		for _, n := range nodes {
			n.send(Frame{Type: FrameCheckpoint, Blob: snap(n.rank, 0, it)})
		}
	}
	for coord.Stats().CustodySaves < 5 { // until the event loop has accepted all five frames
		runtime.Gosched()
	}
	coord.Close()
	returned := make(chan error, 1)
	go func() {
		_, err := coord.Wait()
		returned <- err
	}()
	var err error
	for waiting := true; waiting; {
		select {
		case err = <-returned:
			waiting = false
		case <-g.entered:
		case g.gate <- struct{}{}:
		}
	}
	if !errors.Is(err, ErrCoordClosed) {
		t.Fatalf("Wait after Close: %v, want ErrCoordClosed", err)
	}
	for _, n := range nodes {
		if blob, ok := g.Load(n.rank); !ok || orderOf(t, blob) != [2]int{0, 3} {
			t.Errorf("rank %d: store not at the newest accepted snapshot when Wait returned", n.rank)
		}
	}
	if n := len(g.log); n != 4 || g.log[n-1] != "sync" {
		t.Errorf("store log %v: want 3 saves (5 frames coalesced) then one sync", g.log)
	}
	if st := coord.Stats(); st.CustodySaves != 5 || st.CustodyCommits != 3 {
		t.Errorf("stats %+v: want 5 frames accepted, 3 blobs committed", st)
	}
}

// TestAwaitAcksCountsOnlyCurrentGenerationEOF drives the event loop's
// shutdown phase with an exact schedule: a replaced link's end-of-stream is
// not the member's ack, a checkpoint frame is kept, and the loop returns on
// the last current link's EOF.
func TestAwaitAcksCountsOnlyCurrentGenerationEOF(t *testing.T) {
	c := &Coordinator{spec: RunSpec{Procs: 3}, custody: newCustody(nil, 3), abort: make(chan struct{}), ackTimeout: time.Hour,
		cfg: CoordConfig{RejoinWait: time.Hour}}
	link := func(rank int) *peerConn {
		near, _ := tcpPair(t)
		pc := newPeerConn(rank, near, 4, wireOpts{})
		t.Cleanup(pc.close)
		return pc
	}
	r := newRoster(c)
	links := []*peerConn{link(0), link(1), link(2)}
	replaced := link(1) // rank 1 was reclaimed once: its dead incarnation's link
	copy(r.links, links)
	r.joined = 3
	for rank := range links {
		r.results[rank] = &NodeReport{Rank: rank}
	}
	r.acked[2] = true               // closed right after its result
	r.events = make(chan linkEvent) // unbuffered: a send returns once the loop took it
	done := make(chan error, 1)
	go func() { done <- c.serve(r, nil, time.Now().Add(time.Hour)) }()
	feed := func(ev linkEvent) {
		t.Helper()
		select {
		case r.events <- ev:
		case err := <-done:
			t.Fatalf("ack loop returned early (%v), before %+v", err, ev)
		}
	}
	feed(linkEvent{pc: replaced, err: io.EOF}) // the dead incarnation's tail
	feed(linkEvent{pc: links[0], err: io.EOF})
	// Had the stale EOF counted, all three ranks would now read acked and the
	// loop would be gone; feed fails the test in that case.
	feed(linkEvent{pc: links[1], f: Frame{Type: FrameCheckpoint, Blob: snap(1, 1, 9)}})
	feed(linkEvent{pc: links[1], err: io.EOF})
	if err := <-done; err != nil {
		t.Fatalf("ack loop: %v", err)
	}
	if len(r.acked) != 3 {
		t.Errorf("acked = %v, want all three ranks", r.acked)
	}
	if blob, ok := c.custody.get(1); !ok || orderOf(t, blob) != [2]int{1, 9} {
		t.Error("checkpoint fed during the ack wait was dropped")
	}
}

// TestLinkQueueCapacityOne: a 4-rank all-to-all completes with every peer
// link's send queue forced to one frame — Send blocking on a full queue is
// backpressure, never a cycle.
func TestLinkQueueCapacityOne(t *testing.T) {
	spec := RunSpec{App: "jacobi", Procs: 4, MaxIter: 300, FW: 0, N: 32, Seed: 7}
	coord, err := NewCoordinator(CoordConfig{Spec: spec, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	launchNodes(t, spec.Procs, func(int) NodeConfig {
		return NodeConfig{Coord: coord.Addr(), linkQueue: 1}
	})
	reports, err := coord.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reports {
		if rep.Iters != spec.MaxIter && !rep.Converged {
			t.Errorf("rank %d stopped at %d/%d iterations unconverged", rep.Rank, rep.Iters, spec.MaxIter)
		}
	}
}
