package distnet

// One accept path per listener: the coordinator and every node serve their
// listener with one acceptor for the whole run, read each hello on its own
// goroutine and decide it by one rule. A stray connection at any point of
// the run — garbled, silent, self-ranked, stale — is closed and changes
// nothing.

import (
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"specomp/internal/inbox"
	"specomp/internal/obs"
)

// strayConn dials addr and writes raw (nothing when raw is nil); the
// connection stays open until the test ends.
func strayConn(t *testing.T, addr string, raw []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}
}

// finishScripted reports every scripted node's result, acks the shutdown
// and returns what Wait returned.
func finishScripted(t *testing.T, coord *Coordinator, nodes []*scriptedNode) ([]NodeReport, error) {
	t.Helper()
	report(nodes)
	for _, n := range nodes {
		n.expect(FrameShutdown)
		n.conn.Close()
	}
	return coord.Wait()
}

// TestMembershipIgnoresGarbledConnection: a connection that sends a frame
// that is not a hello before any node joins is closed; membership goes on
// and the run succeeds.
func TestMembershipIgnoresGarbledConnection(t *testing.T) {
	coord := scriptedCoordinator(t, 2, time.Minute, nil)
	strayConn(t, coord.Addr(), frameFor([]byte{0xee})) // complete, CRC-valid, unknown type
	reports, err := finishScripted(t, coord, scriptedFleet(t, coord))
	if err != nil || len(reports) != 2 {
		t.Fatalf("run after a garbled connection: %d reports, err %v", len(reports), err)
	}
}

// TestMembershipIgnoresSilentConnection: a connection that never says
// hello delays membership by nothing — the run finishes long before the
// coordinator's Timeout, which is all a silent connection could wait out.
func TestMembershipIgnoresSilentConnection(t *testing.T) {
	const timeout = 3 * time.Second
	coord, err := newCoordinator(CoordConfig{
		Spec: RunSpec{App: "heat", Procs: 2, MaxIter: 1}, Timeout: timeout,
	}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	began := time.Now()
	strayConn(t, coord.Addr(), nil)
	reports, err := finishScripted(t, coord, scriptedFleet(t, coord))
	if err != nil || len(reports) != 2 {
		t.Fatalf("run after a silent connection: %d reports, err %v", len(reports), err)
	}
	if took := time.Since(began); took > timeout/2 {
		t.Errorf("run took %v: membership waited on the silent connection", took)
	}
}

// TestCloseDuringMembershipIsErrCoordClosed: Close while the coordinator
// still waits for nodes is a deliberate teardown — Wait returns
// ErrCoordClosed — and severs the node that already joined.
func TestCloseDuringMembershipIsErrCoordClosed(t *testing.T) {
	joined := make(chan struct{}, 1)
	coord, err := NewCoordinator(CoordConfig{
		Spec: RunSpec{App: "heat", Procs: 2, MaxIter: 1}, Timeout: time.Minute,
		Logf: func(format string, _ ...any) {
			if strings.HasPrefix(format, "node %d joined") {
				joined <- struct{}{}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	n := joinScripted(t, coord.Addr())
	<-joined
	coord.Close()
	if _, err := coord.Wait(); !errors.Is(err, ErrCoordClosed) {
		t.Fatalf("Wait after Close during membership: %v, want ErrCoordClosed", err)
	}
	_ = n.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := readFrame(n.br); err == nil || isTimeout(err) {
		t.Errorf("joined node's link after Close: %v, want it severed", err)
	}
}

// TestMeshBuildIgnoresStrayConnection: connections that land on a node's
// peer port while the mesh is being built — garbled, self-ranked, out of
// range, silent — are closed, and the mesh and the run complete. The first
// node joins (and so takes rank 0, the rank that accepts) before the strays
// connect, so they queue ahead of its real peer.
func TestMeshBuildIgnoresStrayConnection(t *testing.T) {
	spec := RunSpec{App: "heat", Procs: 2, MaxIter: 20, FW: 1, Theta: 1e-3, Rows: 8, Cols: 8}
	peerAddr := make(chan string, 1)
	coord, err := NewCoordinator(CoordConfig{
		Spec: spec, Timeout: 15 * time.Second,
		Logf: func(format string, args ...any) {
			if strings.HasPrefix(format, "node %d joined") && args[0] == 0 {
				peerAddr <- args[2].(string)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	var wg sync.WaitGroup
	errs := make([]error, spec.Procs)
	launch := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = RunNode(NodeConfig{Coord: coord.Addr(), DialTimeout: 5 * time.Second})
		}()
	}
	launch(0)
	addr := <-peerAddr
	strayConn(t, addr, frameFor([]byte{0xee}))
	strayConn(t, addr, encodeFrame(t, Frame{Type: FrameHello, Rank: 0, Addr: "self"}))
	strayConn(t, addr, encodeFrame(t, Frame{Type: FrameHello, Rank: 7, Addr: "nowhere"}))
	strayConn(t, addr, nil)
	launch(1)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("node %d: %v", i, err)
		}
	}
	if reports, err := coord.Wait(); err != nil || len(reports) != spec.Procs {
		t.Fatalf("run with strays on a peer port: %d reports, err %v", len(reports), err)
	}
}

// ruleTransport is rank 0 of p with nothing linked yet, as connectMesh
// leaves it before the first install.
func ruleTransport(t *testing.T, p int) *transport {
	tr := &transport{
		rank: 0, p: p,
		peers:   make([]atomic.Pointer[peerConn], p),
		inbox:   inbox.New(),
		wobs:    newWireObs(obs.NewRegistry(), 0, p),
		nodeCfg: NodeConfig{HeartbeatEvery: time.Hour, linkQueue: 16},
		myHello: Frame{Type: FrameHello, Rank: 0, Addr: "self"},
		meshUp:  make(chan struct{}),
	}
	t.Cleanup(tr.close)
	return tr
}

// TestRejoinEpochRule drives install, the one rule every peer link passes,
// through its cases on rank 0 of three: an empty slot takes any
// incarnation, an occupied one only a strictly newer epoch (counted as a
// reconnect), and a self-ranked, out-of-range or post-close hello is
// refused. The far end of an admitted accepted link reads this node's hello
// reply; a refused one reads nothing before the close.
func TestRejoinEpochRule(t *testing.T) {
	const p = 3
	tr := ruleTransport(t, p)
	steps := []struct {
		name          string
		rank, epoch   int
		closeFirst    bool
		admit         bool
		slotEpoch     int // epoch in rank's slot afterwards (-1: empty or out of range)
		reconnects    float64
		replacedLinks bool
	}{
		{name: "empty slot takes epoch 0", rank: 1, epoch: 0, admit: true, slotEpoch: 0},
		{name: "equal epoch refused", rank: 1, epoch: 0, slotEpoch: 0},
		{name: "higher epoch replaces", rank: 1, epoch: 2, admit: true, slotEpoch: 2, reconnects: 1, replacedLinks: true},
		{name: "lower epoch refused", rank: 1, epoch: 1, slotEpoch: 2, reconnects: 1},
		{name: "self-ranked refused", rank: 0, epoch: 9, slotEpoch: -1, reconnects: 1},
		{name: "out of range refused", rank: p, epoch: 0, slotEpoch: -1, reconnects: 1},
		{name: "negative rank refused", rank: -1, epoch: 0, slotEpoch: -1, reconnects: 1},
		{name: "empty slot after close refused", rank: 2, epoch: 0, closeFirst: true, slotEpoch: -1, reconnects: 1},
		{name: "newer epoch after close refused", rank: 1, epoch: 5, slotEpoch: 2, reconnects: 1},
	}
	var prev net.Conn // far end of the link currently in slot 1
	for _, st := range steps {
		if st.closeFirst {
			tr.close()
		}
		near, far := tcpPair(t)
		hello := Frame{Type: FrameHello, Rank: st.rank, Epoch: st.epoch, Addr: "peer"}
		admitted := tr.install(near, hello, true)
		if !admitted {
			near.Close()
		}
		if admitted != st.admit {
			t.Fatalf("%s: install = %v, want %v", st.name, admitted, st.admit)
		}
		_ = far.SetReadDeadline(time.Now().Add(5 * time.Second))
		reply, err := readFrame(far)
		switch {
		case st.admit && (err != nil || reply.Type != FrameHello || reply.Rank != 0):
			t.Errorf("%s: far end read %+v, %v; want this node's hello", st.name, reply, err)
		case !st.admit && err == nil:
			t.Errorf("%s: refused connection was sent a %v frame", st.name, reply.Type)
		}
		got := -1
		if st.rank >= 0 && st.rank < p {
			if pc := tr.peer(st.rank); pc != nil {
				got = pc.epoch
			}
		}
		if got != st.slotEpoch {
			t.Errorf("%s: slot %d holds epoch %d, want %d", st.name, st.rank, got, st.slotEpoch)
		}
		if n := tr.wobs.reconnects.Value(); n != st.reconnects {
			t.Errorf("%s: %v reconnects, want %v", st.name, n, st.reconnects)
		}
		if st.replacedLinks {
			// The retired link is closed: its far end reads end-of-stream
			// (after at most the beacons and hello already in flight).
			for {
				if _, err := readFrame(prev); err != nil {
					if isTimeout(err) {
						t.Errorf("%s: replaced link still open", st.name)
					}
					break
				}
			}
		}
		if admitted && st.rank == 1 {
			prev = far
		}
	}
}

// TestInstallRaceAdmitsOne: hellos of one epoch racing for one empty slot —
// a duplicate dial during mesh build — admit exactly one link, and the mesh
// counts as up exactly once.
func TestInstallRaceAdmitsOne(t *testing.T) {
	tr := ruleTransport(t, 2)
	const racers = 8
	conns := make([]net.Conn, racers)
	for i := range conns {
		conns[i], _ = tcpPair(t)
	}
	var admitted atomic.Int32
	var wg sync.WaitGroup
	for _, conn := range conns {
		wg.Add(1)
		go func(conn net.Conn) {
			defer wg.Done()
			if tr.install(conn, Frame{Type: FrameHello, Rank: 1, Addr: "peer"}, true) {
				admitted.Add(1)
			} else {
				conn.Close()
			}
		}(conn)
	}
	wg.Wait()
	if n := admitted.Load(); n != 1 {
		t.Fatalf("%d of %d equal-epoch hellos admitted, want 1", n, racers)
	}
	select {
	case <-tr.meshUp:
	default:
		t.Error("mesh not up with its one slot filled")
	}
}
