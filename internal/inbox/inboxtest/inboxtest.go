// Package inboxtest is the table of delivery tests both wall-clock
// transports run. Each exported function is one row: a property of the
// delivery rule (internal/inbox) checked through a transport's own send and
// receive calls. realtime and distnet each run every row on a linked pair of
// their transports, so the rule is written down once and holds on both.
//
// The rows that time a delivery never sleep: they spin on the receiver's
// clock and judge by the message's own stamps, so an OS stall cannot fail
// them.
package inboxtest

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"specomp/internal/cluster"
	"specomp/internal/core"
	"specomp/internal/netmodel"
)

// Receiver is the receiving side of a linked pair.
type Receiver interface {
	core.Transport
	core.DeadlineReceiver
}

// Backend is one wall-clock transport under test.
type Backend struct {
	// Link returns a linked pair whose two sides share one clock origin. send
	// hands rx one message (tag, iter, nil payload) owed hold seconds and
	// puts it on its way, as the engine's next poll would.
	Link func(t *testing.T) (send func(tag, iter int, hold float64), rx Receiver)
	// ReaderStamps says a reader goroutine, not the sender, stamps arrivals:
	// a row that keeps the receiver's P busy must leave that reader a P.
	ReaderStamps bool
	// Allocs is what one message costs the backend whatever its hold.
	Allocs float64
}

// generous bounds (seconds) a receive expected to return a message at once.
const generous = 10.0

func spinUntil(rx Receiver, at float64) {
	for rx.Now() < at {
	}
}

// VisibleAtHold: a message is not visible before its hold, and is visible
// once the hold has passed to a receiver that never yields its P. A
// sender-side timer cannot do that: with the only P inside the spin nothing
// runs it. A backend whose reader stamps arrivals runs this row with a
// second P, which that reader needs before anything can be visible.
func VisibleAtHold(t *testing.T, b Backend) {
	procs := 1
	if b.ReaderStamps {
		procs = max(2, runtime.GOMAXPROCS(0))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	const hold = 0.001
	send, rx := b.Link(t)
	for attempt := 0; attempt < 32; attempt++ {
		send(7, attempt, hold)
		sent := rx.Now()
		spinUntil(rx, sent+hold/2)
		m, ok := rx.TryRecv(cluster.Any, cluster.Any)
		if ok {
			if m.DeliveredAt-m.SentAt < hold {
				t.Fatalf("visible %.3f ms after the send, hold is 1 ms: %+v", (m.DeliveredAt-m.SentAt)*1e3, m)
			}
			// The OS took the CPU away past the message's due time (sent is
			// read after send returns, some way past m.SentAt): this poll
			// shows nothing either way. Try again.
			continue
		}
		if b.ReaderStamps {
			for !ok && rx.Now() < sent+generous {
				m, ok = rx.TryRecv(cluster.Any, cluster.Any)
			}
		} else {
			spinUntil(rx, sent+3*hold)
			m, ok = rx.TryRecv(cluster.Any, cluster.Any)
		}
		if !ok {
			t.Fatal("not visible to a spinning receiver after its hold: delivery waits on the scheduler")
		}
		if m.Tag != 7 || m.Iter != attempt || m.Hold != hold {
			t.Fatalf("delivered %+v", m)
		}
		if got := m.DeliveredAt - m.SentAt; got < hold {
			t.Fatalf("DeliveredAt - SentAt = %v s, below the hold", got)
		}
		return
	}
	t.Skip("machine too loaded: every poll in 32 attempts ran past the message's due time")
}

// DueOrder: messages come out in due order, not send order — a short-hold
// copy queued behind a long-hold one is visible at its own due time — and
// none before its hold. The holds are netmodel.Jitter around 2 ms, and the
// first copy carries a spike.
func DueOrder(t *testing.T, b Backend) {
	const n, spike = 16, 0.1
	send, rx := b.Link(t)
	jitter := netmodel.Jitter{Inner: netmodel.Fixed{D: 0.002}, Frac: 0.5}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		hold := jitter.Delay(netmodel.Msg{}, rng)
		if i == 0 {
			hold += spike
		}
		send(1, i, hold)
	}
	for k := 0; k < n; k++ {
		var m cluster.Message
		if k%2 == 0 {
			m = rx.Recv(cluster.Any, cluster.Any)
		} else {
			for ok := false; !ok; {
				m, ok = rx.TryRecv(cluster.Any, cluster.Any)
			}
		}
		if m.DeliveredAt-m.SentAt < m.Hold {
			t.Fatalf("message %d delivered %v s after its send, its hold is %v", m.Iter, m.DeliveredAt-m.SentAt, m.Hold)
		}
		if (m.Iter == 0) != (k == n-1) {
			t.Fatalf("message %d (hold %.1f ms) came out %d of %d: the spiked copy must come out last and hold no other back",
				m.Iter, m.Hold*1e3, k+1, n)
		}
	}
	if m, ok := rx.TryRecv(cluster.Any, cluster.Any); ok {
		t.Fatalf("extra message %+v", m)
	}
}

// Deadline: a bounded receive on an empty inbox lasts its whole bound and is
// accounted as communication time, a zero bound returns at once, a call
// already waiting returns an arriving message at once without leaving its
// bound behind for the next call, and a message due after the deadline is
// not delivered early.
func Deadline(t *testing.T, b Backend) {
	send, rx := b.Link(t)
	began := time.Now()
	if m, ok := rx.RecvDeadline(cluster.Any, cluster.Any, 0.02); ok {
		t.Fatalf("empty inbox delivered %+v", m)
	}
	if d := time.Since(began); d < 20*time.Millisecond || d > 5*time.Second {
		t.Fatalf("20 ms deadline expired after %v", d)
	}
	if _, ok := rx.RecvDeadline(cluster.Any, cluster.Any, 0); ok {
		t.Fatal("zero deadline delivered a message")
	}
	if rx.PhaseTime(cluster.PhaseComm) < 0.02 {
		t.Fatalf("blocked time %v s, waited 20 ms", rx.PhaseTime(cluster.PhaseComm))
	}

	sent := make(chan struct{})
	go func() {
		defer close(sent)
		spinUntil(rx, rx.Now()+0.002)
		send(9, 0, 0)
	}()
	m, ok := rx.RecvDeadline(cluster.Any, cluster.Any, 0.03)
	if !ok { // a loaded machine took longer than the bound to run the sender
		m, ok = rx.RecvDeadline(cluster.Any, cluster.Any, generous)
	}
	<-sent
	if !ok || m.Tag != 9 {
		t.Fatalf("awaited message: got (%+v, %v)", m, ok)
	}
	spinUntil(rx, rx.Now()+0.04) // the 30 ms bound above has run out
	began = time.Now()
	if m, ok := rx.RecvDeadline(cluster.Any, cluster.Any, 0.02); ok {
		t.Fatalf("empty inbox delivered %+v", m)
	}
	if d := time.Since(began); d < 20*time.Millisecond {
		t.Fatalf("20 ms deadline ended after %v: cut short by the previous call's bound", d)
	}

	send(5, 2, 0.04)
	began = time.Now()
	m, ok = rx.RecvDeadline(cluster.Any, cluster.Any, 0.005)
	if d := time.Since(began); !ok && d < 5*time.Millisecond {
		t.Fatalf("5 ms deadline ended after %v", d)
	}
	if !ok { // ok only if the machine stalled this test past the due time
		m, ok = rx.RecvDeadline(cluster.Any, cluster.Any, generous)
	}
	if !ok || m.Tag != 5 || m.Iter != 2 {
		t.Fatalf("next call returned (%+v, %v)", m, ok)
	}
	if m.DeliveredAt-m.SentAt < 0.04 {
		t.Fatalf("delivered %v s after its send, its hold is 40 ms", m.DeliveredAt-m.SentAt)
	}
}

// SendsBeforeAnyTake: an inbox has no capacity, so 10 000 sends before the
// receiver takes anything neither block nor lose a message, and equal holds
// keep their send order.
func SendsBeforeAnyTake(t *testing.T, b Backend) {
	const n = 10000
	send, rx := b.Link(t)
	for i := 0; i < n; i++ {
		send(1, i, 0)
	}
	for i := 0; i < n; i++ {
		m, ok := rx.RecvDeadline(cluster.Any, cluster.Any, generous)
		if !ok || m.Iter != i {
			t.Fatalf("receive %d of %d: got (iter %d, %v)", i, n, m.Iter, ok)
		}
	}
}

// SelectiveReceivePanics: the engine receives only (Any, Any), so a
// wall-clock transport has no selector and refuses any other, by name.
func SelectiveReceivePanics(t *testing.T, b Backend) {
	_, rx := b.Link(t)
	calls := map[string]func(){
		"TryRecv(0, Any)":         func() { rx.TryRecv(0, cluster.Any) },
		"Recv(Any, 1)":            func() { rx.Recv(cluster.Any, 1) },
		"RecvDeadline(0, 1, 0.1)": func() { rx.RecvDeadline(0, 1, 0.1) },
	}
	for name, call := range calls {
		func() {
			defer func() {
				if r, _ := recover().(string); !strings.Contains(r, "(Any, Any)") {
					t.Errorf("%s panicked with %q, want the (Any, Any) rule", name, r)
				}
			}()
			call()
		}()
	}
}

// DelayedSendAllocs: a delay costs no timer, closure or goroutine — a send
// and its receive, polled or blocking, allocate no more than the backend's
// per-message cost with a hold as without one.
func DelayedSendAllocs(t *testing.T, b Backend) {
	send, rx := b.Link(t)
	for _, hold := range []float64{0, 50e-6} {
		polled := testing.AllocsPerRun(200, func() {
			send(1, 0, hold)
			for {
				if _, ok := rx.TryRecv(cluster.Any, cluster.Any); ok {
					return
				}
				time.Sleep(10 * time.Microsecond) // park, so a link's reader and writer get to run
			}
		})
		blocked := testing.AllocsPerRun(200, func() {
			send(1, 0, hold)
			rx.Recv(cluster.Any, cluster.Any)
		})
		if polled > b.Allocs || blocked > b.Allocs {
			t.Fatalf("hold %v s: %v allocs per message polled, %v blocking; want at most %v", hold, polled, blocked, b.Allocs)
		}
	}
}
