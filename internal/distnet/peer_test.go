package distnet

import (
	"bufio"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"specomp/internal/cluster"
	"specomp/internal/faults"
	"specomp/internal/inbox"
	"specomp/internal/netmodel"
)

// tcpPair returns a connected loopback TCP pair (a dialed, b accepted).
func tcpPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	b := <-accepted
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// TestPeerConnCloseRace cycles connect/teardown with concurrent senders and
// concurrent closers — the coordinator's shutdown broadcast racing a node's
// own teardown. Run under -race; the old select-then-close(stop) pattern
// double-closed the channel and panicked.
func TestPeerConnCloseRace(t *testing.T) {
	for cycle := 0; cycle < 100; cycle++ {
		a, b := net.Pipe()
		pc := newPeerConn(0, a, 8, wireOpts{})
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			br := bufio.NewReader(b)
			for {
				if _, err := readFrame(br); err != nil {
					return
				}
			}
		}()
		var wg sync.WaitGroup
		for s := 0; s < 3; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < 20; k++ {
					pc.send(Frame{Type: FrameData, Msg: cluster.Message{
						Src: 0, Dst: 1, Tag: 1, Iter: k, Data: []float64{1, 2},
					}})
				}
			}()
		}
		for c := 0; c < 3; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				pc.close()
			}()
		}
		wg.Wait()
		pc.close() // still idempotent after everyone else
		if !pc.down.Load() {
			// down need not be set by close itself — but a send after close
			// must be a silent no-op, never a panic or a hang.
			pc.send(Frame{Type: FrameHeartbeat})
		}
		b.Close()
		<-drained
	}
}

// TestHeartbeatSurvivesBackpressure is the liveness-starvation regression:
// a writer stalled against a full TCP window (healthy peer, slow reader)
// must still get its due liveness beacon onto the wire as soon as the link
// drains. The old drop-on-congestion beacons died at every full-queue tick,
// so a backpressured link went silent and was falsely suspected dead.
func TestHeartbeatSurvivesBackpressure(t *testing.T) {
	a, b := tcpPair(t)
	const outCap = 4
	pc := newPeerConn(1, a, outCap, wireOpts{})
	defer pc.close()

	// 1 MiB frames overwhelm the socket buffering well before the queue
	// does: the writer ends up blocked mid-Write against a full TCP window.
	big := make([]float64, 128<<10)
	const dataFrames = 24
	senderDone := make(chan struct{})
	go func() {
		defer close(senderDone)
		for i := 0; i < dataFrames; i++ {
			pc.send(Frame{Type: FrameData, Msg: cluster.Message{Src: 1, Iter: i, Data: big}})
		}
	}()

	// Wait for saturation: queue full, writer stuck in the TCP window.
	deadline := time.Now().Add(5 * time.Second)
	for len(pc.out) < outCap && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if len(pc.out) < outCap {
		t.Fatal("could not saturate the link")
	}

	const interval = 100 * time.Millisecond
	go pc.heartbeater(interval)
	time.Sleep(3 * interval) // beacons come due while the link is stalled

	// Drain. The due beacon was enqueued (blocking) during the stall, so it
	// arrives interleaved with the backlog — not an interval later.
	br := bufio.NewReader(b)
	data, beats := 0, 0
	for data < dataFrames {
		f, err := readFrame(br)
		if err != nil {
			t.Fatalf("after %d data frames: %v", data, err)
		}
		switch f.Type {
		case FrameData:
			data++
		case FrameHeartbeat:
			beats++
		}
	}
	if beats == 0 {
		// Allow the queued beacon to trail the final data frame — but it
		// must land well before the next tick would fire.
		_ = b.SetReadDeadline(time.Now().Add(interval / 2))
		if f, err := readFrame(br); err == nil && f.Type == FrameHeartbeat {
			beats++
		}
	}
	if beats == 0 {
		t.Fatal("backpressured link starved its liveness beacons")
	}
	<-senderDone
	if pc.down.Load() {
		t.Fatal("healthy link latched down during backpressure")
	}
}

// TestHeartbeatPiggybacksOnTraffic asserts the other half of the policy: a
// link already carrying data emits no explicit beacons at all — outbound
// frames are the heartbeat.
func TestHeartbeatPiggybacksOnTraffic(t *testing.T) {
	a, b := tcpPair(t)
	pc := newPeerConn(1, a, 64, wireOpts{})
	defer pc.close()

	const interval = 40 * time.Millisecond
	go pc.heartbeater(interval)

	stop := make(chan struct{})
	go func() { // steady data traffic, well under the beacon interval
		tick := time.NewTicker(interval / 8)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-tick.C:
				pc.send(Frame{Type: FrameData, Msg: cluster.Message{Src: 1, Iter: i, Data: []float64{1}}})
			case <-stop:
				return
			}
		}
	}()

	br := bufio.NewReader(b)
	beats := 0
	readUntil := time.Now().Add(5 * interval)
	for time.Now().Before(readUntil) {
		_ = b.SetReadDeadline(readUntil)
		f, err := readFrame(br)
		if err != nil {
			break
		}
		if f.Type == FrameHeartbeat {
			beats++
		}
	}
	close(stop)
	if beats != 0 {
		t.Errorf("busy link emitted %d explicit beacons, want 0 (piggybacked)", beats)
	}
}

// linkedTransports builds two manual transports over one real TCP link —
// rank 0 (optionally fault-injected) talking to rank 1 — with readers
// running, mirroring what RunNode assembles around connectMesh. Both share
// one clock origin, so a message's stamps compare across the pair.
func linkedTransports(t *testing.T, wire WireSpec, model netmodel.Model, seed int64) (*transport, *transport) {
	t.Helper()
	a, b := tcpPair(t)
	start := time.Now()
	mk := func(rank int, conn net.Conn, peer int, inj *faults.Injector) *transport {
		tr := &transport{
			rank: rank, p: 2, procs: 2,
			peers: make([]atomic.Pointer[peerConn], 2),
			inbox: inbox.New(),
			inj:   inj,
			wire:  wire,
			start: start,
		}
		tr.pend = make([][]cluster.Message, 2)
		for i := range tr.pend {
			tr.pend[i] = getBatch()
		}
		tr.pendBytes = make([]int, 2)
		pc := newPeerConn(peer, conn, 4096, wireOpts{delta: wire.Delta, clock: true, rows: tr.inbox})
		tr.peers[peer].Store(pc)
		go tr.reader(pc)
		return tr
	}
	tr0 := mk(0, a, 1, faults.NewInjector(model, seed))
	tr1 := mk(1, b, 0, nil)
	t.Cleanup(func() { tr0.close(); tr1.close() })
	return tr0, tr1
}

// TestBatchFaultParity proves injection is per message inside a batch: the
// multiset of deliveries under drop+duplicate faults on the batched path
// must match, message for message, what netmodel.DeliveriesOf plans for the
// same (model, seed, send sequence) — the simulator's semantics, with
// batching invisible to them. It also asserts coalescing actually happened.
func TestBatchFaultParity(t *testing.T) {
	model := func() netmodel.Model {
		return faults.Drop{
			Prob: 0.3,
			Inner: faults.Duplicate{
				Prob:  0.3,
				Inner: netmodel.Fixed{D: 0}, // zero delay: every copy goes out in the iteration's batch
			},
		}
	}
	const seed = 909
	const iters, tags = 50, 4
	payload := func(iter, tag int) []float64 {
		return []float64{float64(iter), float64(tag), float64(iter * tag)}
	}

	tr0, tr1 := linkedTransports(t, WireSpec{Delta: true}, model(), seed)

	// Sender: a deterministic message sequence, flushed once per iteration
	// (the blocking-receive boundary RunNode's engine hits).
	for iter := 0; iter < iters; iter++ {
		for tag := 0; tag < tags; tag++ {
			tr0.Send(1, tag, iter, payload(iter, tag))
		}
		tr0.flushAll(flushRecv)
	}

	// Replay the identical plan sequence offline.
	rng := rand.New(rand.NewSource(seed))
	replay := model()
	netmodel.ResetModel(replay)
	type key struct{ tag, iter int }
	want := make(map[key]int)
	wantTotal := 0
	for iter := 0; iter < iters; iter++ {
		for tag := 0; tag < tags; tag++ {
			bytes := 8*len(payload(iter, tag)) + 64
			plan := netmodel.DeliveriesOf(replay, netmodel.Msg{
				Src: 0, Dst: 1, Bytes: bytes, Procs: 2, Now: 0,
			}, rng)
			want[key{tag, iter}] += len(plan)
			wantTotal += len(plan)
		}
	}
	if wantTotal == 0 || wantTotal == iters*tags {
		t.Fatalf("degenerate replay plan (%d deliveries of %d sends) — bad seed for the test", wantTotal, iters*tags)
	}

	// Receiver: drain everything the wire delivers.
	got := make(map[key]int)
	gotTotal := 0
	for {
		m, ok := tr1.RecvDeadline(cluster.Any, cluster.Any, 0.5)
		if !ok {
			break
		}
		k := key{m.Tag, m.Iter}
		got[k]++
		gotTotal++
		if wantData := payload(m.Iter, m.Tag); len(m.Data) != len(wantData) {
			t.Fatalf("msg %v: %d data elements, want %d", k, len(m.Data), len(wantData))
		} else {
			for i := range wantData {
				if m.Data[i] != wantData[i] {
					t.Fatalf("msg %v: data[%d] = %v, want %v (payload corrupted in batch)", k, i, m.Data[i], wantData[i])
				}
			}
		}
	}
	if gotTotal != wantTotal {
		t.Fatalf("delivered %d messages, replay plans %d", gotTotal, wantTotal)
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("message (tag %d, iter %d): delivered %d copies, replay plans %d", k.tag, k.iter, got[k], n)
		}
	}

	// Wire parity replays delivery counts; throughput needs the coalescing:
	// far fewer physical frames than messages.
	frames := tr0.framesSentTotal()
	if frames >= gotTotal {
		t.Errorf("no coalescing: %d frames for %d delivered messages", frames, gotTotal)
	}
	if tr0.drops == 0 {
		t.Error("injector dropped nothing at Prob 0.3 — injection not on the send path?")
	}
}

// TestDialPeerRetriesTruncatedHello drives the taxonomy into the mesh dial
// path: a hello reply cut off mid-frame (stream death — retryable) must be
// retried on a fresh connection, while a corrupt reply must fail fast.
func TestDialPeerRetriesTruncatedHello(t *testing.T) {
	newListener := func(handle func(attempt int, conn net.Conn) bool) (string, chan int) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		counted := make(chan int, 16)
		go func() {
			for attempt := 0; ; attempt++ {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				counted <- attempt + 1
				if done := handle(attempt, conn); done {
					return
				}
			}
		}()
		return ln.Addr().String(), counted
	}

	goodHello := func(conn net.Conn) {
		f := Frame{Type: FrameHello, Rank: 0, Epoch: 3, Addr: "x"}
		_, _ = writeFrame(conn, nil, &f)
	}

	t.Run("truncated reply retried", func(t *testing.T) {
		addr, counted := newListener(func(attempt int, conn net.Conn) bool {
			if _, err := readHello(conn, time.Second); err != nil {
				t.Errorf("attempt %d: %v", attempt, err)
			}
			if attempt == 0 {
				// Send half a hello, then die: io.ErrUnexpectedEOF downstream.
				enc := encodeFrame(t, Frame{Type: FrameHello, Rank: 0, Addr: "x"})
				_, _ = conn.Write(enc[:len(enc)/2])
				conn.Close()
				return false
			}
			goodHello(conn)
			return true
		})
		tr := &transport{rank: 1, p: 2, wire: WireSpec{}}
		myHello := Frame{Type: FrameHello, Rank: 1, Addr: "y"}
		conn, reply, err := tr.dialPeer(addr, 0, myHello, NodeConfig{DialTimeout: 10 * time.Second})
		if err != nil {
			t.Fatalf("dialPeer did not survive a truncated hello: %v", err)
		}
		conn.Close()
		if reply.Epoch != 3 {
			t.Errorf("reply epoch %d, want 3: the retried hello was not the one read", reply.Epoch)
		}
		if attempts := len(counted); attempts < 2 {
			t.Errorf("server saw %d connections, want ≥ 2 (a retry)", attempts)
		}
	})

	t.Run("corrupt reply fatal", func(t *testing.T) {
		addr, counted := newListener(func(attempt int, conn net.Conn) bool {
			if _, err := readHello(conn, time.Second); err != nil {
				t.Errorf("attempt %d: %v", attempt, err)
			}
			// A complete, CRC-valid frame of garbage type: ErrCorrupt.
			_, _ = conn.Write(frameFor([]byte{0xee}))
			_ = conn.(*net.TCPConn).CloseWrite()
			io.Copy(io.Discard, conn) // hold the conn open so the close isn't the error
			return true
		})
		tr := &transport{rank: 1, p: 2, wire: WireSpec{}}
		myHello := Frame{Type: FrameHello, Rank: 1, Addr: "y"}
		_, _, err := tr.dialPeer(addr, 0, myHello, NodeConfig{DialTimeout: 3 * time.Second})
		if err == nil {
			t.Fatal("corrupt hello accepted")
		}
		assertCorrupt(t, err)
		if attempts := len(counted); attempts != 1 {
			t.Errorf("server saw %d connections, want exactly 1 (no retry on corruption)", attempts)
		}
	})
}
