package distnet

// The send path's one flush rule, pinned over two hand-built transports on a
// real TCP link: a message handed to Send is on its link before the caller
// computes, blocks, or returns — an empty poll, entry to a blocking receive
// and the engine's return flush the batcher; nothing else does, and nothing
// runs on a timer. Every wait below is a receive on the peer with a bound no
// passing run gets near.

import (
	"testing"
	"time"

	"specomp/internal/cluster"
	"specomp/internal/netmodel"
)

// generous bounds a RecvDeadline (seconds) that is expected to return a
// message at once.
const generous = 10.0

func wantRecv(t *testing.T, tr *transport, tag, iter int) {
	t.Helper()
	m, ok := tr.RecvDeadline(cluster.Any, cluster.Any, generous)
	if !ok {
		t.Fatalf("rank %d: message (tag %d, iter %d) never reached the wire", tr.rank, tag, iter)
	}
	if m.Tag != tag || m.Iter != iter {
		t.Fatalf("rank %d: got (tag %d, iter %d), want (tag %d, iter %d)", tr.rank, m.Tag, m.Iter, tag, iter)
	}
}

func wantWire(t *testing.T, tr *transport, pending, frames int) {
	t.Helper()
	if tr.pendMsgs != pending || tr.framesSentTotal() != frames {
		t.Fatalf("rank %d: %d messages pending and %d frames sent, want %d and %d",
			tr.rank, tr.pendMsgs, tr.framesSentTotal(), pending, frames)
	}
}

// TestEmptyPollFlushes: SendShared parks the message in the batcher; one
// poll that finds the inbox empty puts it on the wire, with no further call
// on the sender. (Before the rule, only a blocking receive or the linger
// sweep would have.)
func TestEmptyPollFlushes(t *testing.T) {
	tr0, tr1 := linkedTransports(t, WireSpec{}, nil, 0)
	tr0.SendShared(1, 7, 3, []float64{1, 2})
	wantWire(t, tr0, 1, 0)
	if _, ok := tr0.TryRecv(cluster.Any, cluster.Any); ok {
		t.Fatal("poll found a message nobody sent")
	}
	wantWire(t, tr0, 0, 1)
	wantRecv(t, tr1, 7, 3)
}

// TestPollThatFindsAMessageDoesNotFlush: the caller is still draining and
// will poll again; only the poll that comes up empty is the engine's "I have
// stopped talking".
func TestPollThatFindsAMessageDoesNotFlush(t *testing.T) {
	tr0, tr1 := linkedTransports(t, WireSpec{}, nil, 0)
	tr1.inbox <- cluster.Message{Src: 0, Dst: 1, Tag: 1, Iter: 0}
	tr1.SendShared(0, 2, 5, []float64{3})
	if _, ok := tr1.TryRecv(cluster.Any, cluster.Any); !ok {
		t.Fatal("poll missed the queued message")
	}
	wantWire(t, tr1, 1, 0)
	if _, ok := tr1.TryRecv(cluster.Any, cluster.Any); ok {
		t.Fatal("second poll found a message nobody sent")
	}
	wantWire(t, tr1, 0, 1)
	wantRecv(t, tr0, 2, 5)
}

// TestIdlePollSendsNothing: polling with nothing pending costs no frame,
// batched or not; an unbatched link needs no poll at all.
func TestIdlePollSendsNothing(t *testing.T) {
	for name, wire := range map[string]WireSpec{"batched": {}, "nobatch": {NoBatch: true}} {
		t.Run(name, func(t *testing.T) {
			tr0, tr1 := linkedTransports(t, wire, nil, 0)
			for i := 0; i < 3; i++ {
				if _, ok := tr0.TryRecv(cluster.Any, cluster.Any); ok {
					t.Fatal("poll found a message nobody sent")
				}
			}
			wantWire(t, tr0, 0, 0)
			tr0.SendShared(1, 1, 0, []float64{1})
			if wire.NoBatch {
				wantWire(t, tr0, 0, 1)
			}
			tr0.TryRecv(cluster.Any, cluster.Any)
			wantWire(t, tr0, 0, 1)
			wantRecv(t, tr1, 1, 0)
		})
	}
}

// TestBurstStillLeavesAsBatches: a rejoin refill is many sends to one peer
// before the next poll. The size caps cut it into batch frames as it grows
// and the poll ships the remainder — the flush rule takes nothing from the
// cases where batching does coalesce.
func TestBurstStillLeavesAsBatches(t *testing.T) {
	const burst = 40
	cases := map[string]struct {
		floats           int
		atCap, afterPoll int // frames after the burst, frames after the poll
	}{
		"msgs cap":  {floats: 4, atCap: 1, afterPoll: 2},   // 32 + 8
		"bytes cap": {floats: 512, atCap: 3, afterPoll: 4}, // 4160 B each: 12 + 12 + 12 + 4
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			tr0, tr1 := linkedTransports(t, WireSpec{}, nil, 0)
			row := make([]float64, c.floats)
			for i := 0; i < burst; i++ {
				tr0.SendShared(1, 1, i, row)
			}
			if got := tr0.framesSentTotal(); got != c.atCap {
				t.Fatalf("%d frames left at the size caps, want %d", got, c.atCap)
			}
			tr0.TryRecv(cluster.Any, cluster.Any)
			wantWire(t, tr0, 0, c.afterPoll)
			for i := 0; i < burst; i++ {
				wantRecv(t, tr1, 1, i) // per-link order survives the cuts
			}
		})
	}
}

// TestHoldBackReleasesDeliveredCopies: an injector-delayed copy is retained
// only while it is in flight. Once every delayed send has been delivered the
// retained set is empty, so a latency soak holds a bounded number of frames
// and payloads rather than one per message ever sent; close still stops what
// is outstanding and refuses new copies.
func TestHoldBackReleasesDeliveredCopies(t *testing.T) {
	const sends = 64
	tr0, tr1 := linkedTransports(t, WireSpec{}, netmodel.Fixed{D: 0.002}, 1)
	retained := func() int {
		tr0.timersMu.Lock()
		defer tr0.timersMu.Unlock()
		return len(tr0.held)
	}
	for i := 0; i < sends; i++ {
		tr0.SendShared(1, 1, i, []float64{float64(i)})
	}
	wantWire(t, tr0, 0, 0) // delayed copies bypass the batcher
	if n := retained(); n > sends {
		t.Fatalf("%d copies retained for %d sends", n, sends)
	}
	seen := make(map[int]bool)
	for i := 0; i < sends; i++ {
		m, ok := tr1.RecvDeadline(cluster.Any, cluster.Any, generous)
		if !ok {
			t.Fatalf("delayed copy %d of %d never arrived", i, sends)
		}
		seen[m.Iter] = true
	}
	if len(seen) != sends {
		t.Fatalf("%d distinct messages delivered, want %d", len(seen), sends)
	}
	if n := retained(); n != 0 {
		t.Fatalf("%d delayed copies still retained after all %d were delivered", n, sends)
	}

	tr0, _ = linkedTransports(t, WireSpec{}, netmodel.Fixed{D: 3600}, 1)
	tr0.SendShared(1, 1, 0, []float64{0})
	if n := retained(); n != 1 {
		t.Fatalf("%d copies in flight, want 1", n)
	}
	tr0.close()
	tr0.SendShared(1, 1, 1, []float64{0})
	if n := retained(); n != 0 {
		t.Fatalf("%d copies retained after close", n)
	}
}

// TestRecvDeadline covers the transport's deadline receive and its one
// reusable timer: expiry, a match after several non-matching arrivals, and a
// tick left over from a call that returned on a message not ending the next
// call early.
func TestRecvDeadline(t *testing.T) {
	tr0, tr1 := linkedTransports(t, WireSpec{}, nil, 0)

	// Expiry: nothing arrives, the call lasts the whole bound and no longer
	// than a loaded machine explains.
	began := time.Now()
	if m, ok := tr1.RecvDeadline(cluster.Any, cluster.Any, 0.02); ok {
		t.Fatalf("empty link delivered %+v", m)
	}
	if d := time.Since(began); d < 20*time.Millisecond || d > 5*time.Second {
		t.Fatalf("20 ms deadline expired after %v", d)
	}
	if _, ok := tr1.RecvDeadline(cluster.Any, cluster.Any, 0); ok {
		t.Fatal("zero deadline delivered a message")
	}

	// A match behind non-matching arrivals: those are parked, in order, for
	// later receives; the timer is armed once for the whole call.
	for tag := 1; tag <= 4; tag++ {
		tr0.SendShared(1, tag, 0, []float64{float64(tag)})
	}
	tr0.TryRecv(cluster.Any, cluster.Any)
	if m, ok := tr1.RecvDeadline(0, 4, generous); !ok || m.Tag != 4 {
		t.Fatalf("selective receive returned (%+v, %v), want tag 4", m, ok)
	}
	for tag := 1; tag <= 3; tag++ {
		if m, ok := tr1.TryRecv(cluster.Any, cluster.Any); !ok || m.Tag != tag {
			t.Fatalf("parked message %d: got (%+v, %v)", tag, m, ok)
		}
	}
	if tr1.msgsRecvd != 4 {
		t.Fatalf("msgsRecvd = %d, want 4", tr1.msgsRecvd)
	}

	// Stale tick: a call with a 30 ms bound returns on a queued message at
	// once and leaves its timer running. Wait out a later, longer deadline on
	// the other side so that timer has fired into its channel, then make sure
	// the next call still waits its own full bound.
	tr0.SendShared(1, 9, 0, nil)
	tr0.TryRecv(cluster.Any, cluster.Any)
	for len(tr1.inbox) == 0 {
		if m, ok := tr0.RecvDeadline(cluster.Any, cluster.Any, 0.001); ok {
			t.Fatalf("idle side delivered %+v", m)
		}
	}
	if m, ok := tr1.RecvDeadline(cluster.Any, cluster.Any, 0.03); !ok || m.Tag != 9 {
		t.Fatalf("queued message: got (%+v, %v)", m, ok)
	}
	if _, ok := tr0.RecvDeadline(cluster.Any, cluster.Any, 0.05); ok {
		t.Fatal("idle side delivered a message")
	}
	began = time.Now()
	if m, ok := tr1.RecvDeadline(cluster.Any, cluster.Any, 0.02); ok {
		t.Fatalf("empty link delivered %+v", m)
	}
	if d := time.Since(began); d < 20*time.Millisecond {
		t.Fatalf("20 ms deadline ended after %v: a stale tick from the previous call", d)
	}
}
