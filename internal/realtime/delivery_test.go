package realtime

import (
	"runtime"
	"testing"
	"time"

	"specomp/internal/cluster"
)

// The delivery rule: a message is in the inbox the moment it is sent and
// visible at SentAt + Delay by the receiver's clock. These tests drive the
// transport directly and never sleep themselves — they spin on the clock, so
// what they observe is the rule and not the Go scheduler.

// spinUntil busy-waits, without yielding, until the mesh clock reads at.
func spinUntil(tr *transport, at float64) {
	for tr.Now() < at {
	}
}

// A rank that never yields the CPU must still see a message once its latency
// has elapsed. A sender-side timer cannot do that: with the only P inside a
// spin nothing runs it, and the message stays invisible until the spin ends.
func TestDelayedMessageVisibleWhileEveryPIsBusy(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const delay = time.Millisecond
	mesh := newMesh(2, 64, delay)
	tx, rx := mesh[0], mesh[1]
	for attempt := 0; attempt < 32; attempt++ {
		tx.SendShared(1, 7, 3, []float64{42})
		sent := tx.Now()
		spinUntil(rx, sent+0.0005)
		m, early := rx.TryRecv(cluster.Any, cluster.Any)
		if rx.Now() >= sent+delay.Seconds() {
			// The OS took the CPU away past the due time: this poll shows
			// nothing either way. Consume the message and try again.
			if !early {
				rx.Recv(cluster.Any, cluster.Any)
			}
			continue
		}
		if early {
			t.Fatalf("visible %.3f ms after the send, Delay is 1 ms: %+v", (m.DeliveredAt-m.SentAt)*1e3, m)
		}
		spinUntil(rx, sent+0.003)
		m, ok := rx.TryRecv(cluster.Any, cluster.Any)
		if !ok {
			t.Fatal("not visible 3 ms after the send with Delay 1 ms: delivery waits on the scheduler")
		}
		if m.Src != 0 || m.Tag != 7 || m.Iter != 3 || len(m.Data) != 1 || m.Data[0] != 42 {
			t.Fatalf("delivered %+v", m)
		}
		if got := m.DeliveredAt - m.SentAt; got < delay.Seconds() {
			t.Fatalf("DeliveredAt - SentAt = %v s, below Delay", got)
		}
		return
	}
	t.Skip("machine too loaded: no poll landed inside the first half millisecond in 32 attempts")
}

// Three senders, interleaved: every message comes out in due order (which is
// send order), none before its latency has elapsed, on both the blocking and
// the polling receive.
func TestDelayedDeliveryOrderAndStamps(t *testing.T) {
	const delay = 300 * time.Microsecond
	const rounds = 8
	mesh := newMesh(4, 3*rounds, delay)
	rx := mesh[3]
	for i := 0; i < rounds; i++ {
		for src := 0; src < 3; src++ {
			mesh[src].SendShared(3, 1, i, nil)
			spinUntil(rx, rx.Now()+20e-6)
		}
	}
	lastDue := 0.0
	for n := 0; n < 3*rounds; n++ {
		var m cluster.Message
		if n%2 == 0 {
			m = rx.Recv(cluster.Any, cluster.Any)
		} else {
			for ok := false; !ok; {
				m, ok = rx.TryRecv(cluster.Any, cluster.Any)
			}
		}
		if m.Src != n%3 || m.Iter != n/3 {
			t.Fatalf("message %d is (src %d, iter %d), want (%d, %d)", n, m.Src, m.Iter, n%3, n/3)
		}
		if m.DeliveredAt-m.SentAt < delay.Seconds() {
			t.Fatalf("message %d delivered %v s after its send, Delay is %v", n, m.DeliveredAt-m.SentAt, delay)
		}
		if due := m.SentAt + delay.Seconds(); due < lastDue {
			t.Fatalf("message %d due at %v, after one due at %v", n, due, lastDue)
		} else {
			lastDue = due
		}
	}
	if m, ok := rx.TryRecv(cluster.Any, cluster.Any); ok {
		t.Fatalf("extra message %+v", m)
	}
}

func TestRecvDeadline(t *testing.T) {
	const generous = 30.0
	mesh := newMesh(2, 8, 0)
	tx, rx := mesh[0], mesh[1]

	// Expiry: nothing arrives, the call lasts the whole bound and no longer
	// than a loaded machine explains.
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

	// A match behind non-matching arrivals: those are parked, in order, for
	// later receives.
	for tag := 1; tag <= 3; tag++ {
		tx.SendShared(1, tag, 0, []float64{float64(tag)})
	}
	if m, ok := rx.RecvDeadline(0, 3, generous); !ok || m.Tag != 3 {
		t.Fatalf("selective receive returned (%+v, %v), want tag 3", m, ok)
	}
	for tag := 1; tag <= 2; tag++ {
		if m, ok := rx.TryRecv(cluster.Any, cluster.Any); !ok || m.Tag != tag {
			t.Fatalf("parked message %d: got (%+v, %v)", tag, m, ok)
		}
	}

	// A call that is already waiting when its message arrives returns it at
	// once, and nothing of its 30 ms bound carries over: well after that bound
	// has passed, the next call still waits its own in full.
	go func() {
		spinUntil(tx, tx.Now()+0.002)
		tx.SendShared(1, 9, 0, nil)
	}()
	m, ok := rx.RecvDeadline(cluster.Any, cluster.Any, 0.03)
	if !ok { // a loaded machine took longer than the bound to run the sender
		m, ok = rx.RecvDeadline(cluster.Any, cluster.Any, generous)
	}
	if !ok || m.Tag != 9 {
		t.Fatalf("awaited message: got (%+v, %v)", m, ok)
	}
	spinUntil(rx, rx.Now()+0.04)
	began = time.Now()
	if m, ok := rx.RecvDeadline(cluster.Any, cluster.Any, 0.02); ok {
		t.Fatalf("empty inbox delivered %+v", m)
	}
	if d := time.Since(began); d < 20*time.Millisecond {
		t.Fatalf("20 ms deadline ended after %v: cut short by the previous call's bound", d)
	}

	// A message due after the deadline is not delivered early: the call lasts
	// its bound, returns false, and the next call gets the message.
	mesh = newMesh(2, 8, 40*time.Millisecond)
	tx, rx = mesh[0], mesh[1]
	tx.SendShared(1, 5, 2, nil)
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
		t.Fatalf("delivered %v s after its send, Delay is 40 ms", m.DeliveredAt-m.SentAt)
	}
}

// A delayed message costs no timer, closure or goroutine: send plus receive
// allocates nothing.
func TestDelayedSendAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const delay = 50 * time.Microsecond
	mesh := newMesh(2, 4, delay)
	tx, rx := mesh[0], mesh[1]
	payload := []float64{1, 2, 3}
	polled := testing.AllocsPerRun(200, func() {
		tx.SendShared(1, 1, 0, payload)
		for {
			if _, ok := rx.TryRecv(cluster.Any, cluster.Any); ok {
				return
			}
		}
	})
	blocked := testing.AllocsPerRun(200, func() {
		tx.SendShared(1, 1, 0, payload)
		rx.Recv(cluster.Any, cluster.Any)
	})
	if polled != 0 || blocked != 0 {
		t.Fatalf("allocs per delayed message: %v polled, %v blocking; want 0", polled, blocked)
	}
}
