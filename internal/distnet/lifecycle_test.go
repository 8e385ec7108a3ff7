package distnet

// The control-plane lifecycle: the coordinator's one admission rule, its
// event loop's end, and the one dial loop's accounting.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"specomp/internal/obs"
)

// readHello reads a link's opening hello, as every listener does.
func readHello(conn net.Conn, timeout time.Duration) (Frame, error) {
	return readHandshake(conn, FrameHello, timeout)
}

// rosterState renders who holds each rank (by epoch, "-" when nobody),
// the vacancies with their last holder's epoch, the parked hellos' epochs,
// and whether membership is open.
func rosterState(r *roster) string {
	var b strings.Builder
	for _, pc := range r.links {
		if pc == nil {
			b.WriteString("- ")
		} else {
			fmt.Fprintf(&b, "e%d ", pc.epoch)
		}
	}
	for rank := range r.links {
		if v, ok := r.vacated[rank]; ok {
			fmt.Fprintf(&b, "v%d:e%d ", rank, v.epoch)
		}
	}
	for _, ph := range r.parked {
		fmt.Fprintf(&b, "p:e%d ", ph.hello.Epoch)
	}
	if r.open() {
		b.WriteString("open")
	} else {
		b.WriteString("closed")
	}
	return b.String()
}

// TestAdmissionRule drives the coordinator's one admission rule through a
// run of three ranks, one step at a time, through the same calls the event
// loop makes: a hello is admitted or parked, a link's end reaches onEvent,
// a liveness tick reaches tick. Before membership closes a hello of any
// epoch takes the lowest free rank, and a member that leaves frees its rank.
// After it, an epoch-0 hello is refused at once; a respawn claims the
// lowest vacated rank whose last holder is older, and waits parked while
// there is none — also when the only vacancy's holder was as new or newer —
// until a vacancy it may claim appears or RejoinWait passes.
func TestAdmissionRule(t *testing.T) {
	c := &Coordinator{spec: RunSpec{App: "heat", Procs: 3}, custody: newCustody(nil, 3),
		cfg: CoordConfig{RejoinWait: time.Minute}, done: make(chan struct{})}
	r := newRoster(c)
	t.Cleanup(func() {
		close(c.done)
		for _, pc := range r.links {
			if pc != nil {
				pc.close()
			}
		}
	})
	const leave, tick = "leave", "tick"
	steps := []struct {
		name   string
		action string // "hello", leave or tick
		arg    int    // the hello's epoch, or the rank whose link ends
		want   string // rosterState afterwards
		err    error  // what tick returns
	}{
		{"first hello takes rank 0", "hello", 0, "e0 - - open", nil},
		{"membership takes any epoch", "hello", 4, "e0 e4 - open", nil},
		{"a member leaving before membership closes frees its rank", leave, 0, "- e4 - open", nil},
		{"the next hello takes the lowest free rank", "hello", 0, "e0 e4 - open", nil},
		{"the last free rank closes membership", "hello", 0, "e0 e4 e0 closed", nil},
		{"epoch-0 hello after membership refused at once", "hello", 0, "e0 e4 e0 closed", nil},
		{"a link ending before its result vacates the rank", leave, 1, "e0 - e0 v1:e4 closed", nil},
		{"a hello no newer than the vacancy's holder is parked", "hello", 4, "e0 - e0 v1:e4 p:e4 closed", nil},
		{"a new vacancy seats the parked hello, skipping a newer holder's", leave, 2, "e0 - e4 v1:e4 closed", nil},
		{"a newer epoch claims the vacancy", "hello", 5, "e0 e5 e4 closed", nil},
		{"the reclaimed rank can be vacated again", leave, 1, "e0 - e4 v1:e5 closed", nil},
		{"an older respawn is parked", "hello", 3, "e0 - e4 v1:e5 p:e3 closed", nil},
		{"RejoinWait drops the parked hello and the vacancy fails the run", tick, 0, "e0 - e4 v1:e5 closed", ErrRankLost},
	}
	fars := make([]net.Conn, len(steps)) // far end of each step's hello
	for i, st := range steps {
		var err error
		switch st.action {
		case "hello":
			near, far := tcpPair(t)
			fars[i] = far
			ph := pendingHello{conn: near, hello: Frame{Type: FrameHello, Rank: -1, Epoch: st.arg, Addr: fmt.Sprintf("peer-%d", i)}, at: time.Now()}
			if !r.admit(ph) {
				r.parked = append(r.parked, ph)
			}
		case leave:
			err = r.onEvent(linkEvent{pc: r.links[st.arg], err: io.EOF})
		case tick:
			err = r.tick(time.Now().Add(c.cfg.RejoinWait + time.Second))
		}
		if got := rosterState(r); got != st.want {
			t.Fatalf("%s: roster %q, want %q", st.name, got, st.want)
		}
		if st.err == nil && err != nil || st.err != nil && !errors.Is(err, st.err) {
			t.Fatalf("%s: error %v, want %v", st.name, err, st.err)
		}
	}

	// What each far end read: a refused or dropped hello's connection is
	// closed with nothing sent; a rejoin seat sends the rank's config.
	readsEOF := func(step int) {
		t.Helper()
		_ = fars[step].SetReadDeadline(time.Now().Add(5 * time.Second))
		if f, err := readFrame(fars[step]); err == nil || isTimeout(err) {
			t.Errorf("%s: far end read %v, %v; want the connection closed", steps[step].name, f.Type, err)
		}
	}
	readsConfig := func(step, rank int, rejoin bool) {
		t.Helper()
		_ = fars[step].SetReadDeadline(time.Now().Add(5 * time.Second))
		f, err := readFrame(fars[step])
		if err != nil || f.Type != FrameConfig {
			t.Fatalf("%s: far end read %v, %v; want a config", steps[step].name, f.Type, err)
		}
		var wc wireConfig
		err = json.Unmarshal(f.Blob, &wc)
		if err != nil || wc.Rank != rank || wc.Rejoin != rejoin || wc.Peers[rank] != fmt.Sprintf("peer-%d", step) {
			t.Errorf("%s: config %+v, %v; want rank %d, rejoin %v, its own address", steps[step].name, wc, err, rank, rejoin)
		}
	}
	readsConfig(3, 0, false)
	readsConfig(4, 2, false)
	readsEOF(5)
	readsConfig(7, 2, true)
	readsConfig(9, 1, true)
	readsEOF(11)
	if st := c.Stats(); st.Vacated != 3 || st.Rejoins != 2 {
		t.Errorf("stats %+v: want 3 vacancies (none before membership closed) and 2 rejoins", st)
	}
}

// distnetGoroutines returns the stacks of the goroutines running code of
// this package whose IDs are not in old.
func distnetGoroutines(old map[string]bool) []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var found []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		id, _, _ := strings.Cut(g, " [")
		if !old[id] && strings.Contains(g, "specomp/internal/distnet.") {
			found = append(found, g)
		}
	}
	return found
}

// TestCoordinatorReadersEndWithTheRun: a run that ends while a member's link
// still carries frames leaves no reader behind. A 2-rank scripted fleet is
// past the barrier; one member writes 2 000 heartbeats in one write, and the
// coordinator is closed. Once Wait has returned, every goroutine the run
// started ends: a reader parked forwarding frames nobody takes would hold
// its goroutine and buffer for the life of the process, and the scheduler
// closes a coordinator on every cancel and eviction.
func TestCoordinatorReadersEndWithTheRun(t *testing.T) {
	before := make(map[string]bool)
	for _, g := range distnetGoroutines(nil) {
		id, _, _ := strings.Cut(g, " [")
		before[id] = true
	}
	coord := scriptedCoordinator(t, 2, time.Minute, nil)
	nodes := scriptedFleet(t, coord)
	hb := encodeFrame(t, Frame{Type: FrameHeartbeat})
	if _, err := nodes[0].conn.Write(bytes.Repeat(hb, 2000)); err != nil {
		t.Fatal(err)
	}
	coord.Close()
	if _, err := coord.Wait(); !errors.Is(err, ErrCoordClosed) {
		t.Fatalf("Wait after Close: %v, want ErrCoordClosed", err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		left := distnetGoroutines(before)
		if len(left) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines of the run outlived it by 5s:\n\n%s", len(left), strings.Join(left, "\n\n"))
		}
	}
}

// TestDialAttemptsCountEveryRetry: specomp_wire_dial_attempts_total counts
// every attempt of the dial loop, the refused connects included. Nothing
// listens at the peer's address until the first dial has failed.
func TestDialAttemptsCountEveryRetry(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	failed := make(chan struct{})
	var once sync.Once
	cfg := NodeConfig{DialTimeout: 10 * time.Second, Logf: func(format string, _ ...any) {
		if strings.HasPrefix(format, "dial ") {
			once.Do(func() { close(failed) })
		}
	}}
	served := make(chan error, 1)
	go func() {
		<-failed
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			served <- err
			return
		}
		defer ln.Close()
		conn, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		defer conn.Close()
		if _, err := readHello(conn, 5*time.Second); err != nil {
			served <- err
			return
		}
		reply := Frame{Type: FrameHello, Rank: 0, Addr: addr}
		_, err = writeFrame(conn, nil, &reply)
		served <- err
	}()
	w := newWireObs(obs.NewRegistry(), 1, 2)
	conn, reply, err := dial(addr, Frame{Type: FrameHello, Rank: 1, Addr: "y"}, true, cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	if reply.Rank != 0 {
		t.Errorf("reply from rank %d, want 0", reply.Rank)
	}
	if n := w.dialAttempts.Value(); n < 2 {
		t.Errorf("%v dial attempts counted, want ≥ 2: the refused connect was not counted", n)
	}
}
