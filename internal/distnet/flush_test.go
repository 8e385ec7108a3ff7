package distnet

// The send path's one flush rule, pinned over two hand-built transports on a
// real TCP link: a message handed to Send is on its link before the caller
// computes, blocks, or returns — an empty poll, entry to a blocking receive
// and the engine's return flush the batcher; nothing else does, and nothing
// runs on a timer. Every wait below is a receive on the peer with a bound no
// passing run gets near.

import (
	"testing"

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

// TestEmptyPollFlushes: Send parks the message in the batcher; one
// poll that finds the inbox empty puts it on the wire, with no further call
// on the sender. (Before the rule, only a blocking receive or the linger
// sweep would have.)
func TestEmptyPollFlushes(t *testing.T) {
	tr0, tr1 := linkedTransports(t, nil, 0)
	tr0.Send(1, 7, 3, []float64{1, 2})
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
	tr0, tr1 := linkedTransports(t, nil, 0)
	tr1.inbox.Put(cluster.Message{Src: 0, Dst: 1, Tag: 1, Iter: 0})
	tr1.Send(0, 2, 5, []float64{3})
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

// TestIdlePollSendsNothing: polling with nothing pending costs no frame.
func TestIdlePollSendsNothing(t *testing.T) {
	t.Run("batched", func(t *testing.T) {
		tr0, tr1 := linkedTransports(t, nil, 0)
		for i := 0; i < 3; i++ {
			if _, ok := tr0.TryRecv(cluster.Any, cluster.Any); ok {
				t.Fatal("poll found a message nobody sent")
			}
		}
		wantWire(t, tr0, 0, 0)
		tr0.Send(1, 1, 0, []float64{1})
		tr0.TryRecv(cluster.Any, cluster.Any)
		wantWire(t, tr0, 0, 1)
		wantRecv(t, tr1, 1, 0)
	})
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
			tr0, tr1 := linkedTransports(t, nil, 0)
			row := make([]float64, c.floats)
			for i := 0; i < burst; i++ {
				tr0.Send(1, 1, i, row)
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

// TestDelayedCopyIsOnTheWireAtOnce: an injector-delayed copy rides the
// batcher like any send and is on the wire by the next empty poll, long
// before it is due; its delay is owed at the receiver, which holds it.
func TestDelayedCopyIsOnTheWireAtOnce(t *testing.T) {
	const hold = 0.2
	tr0, tr1 := linkedTransports(t, netmodel.Fixed{D: hold}, 1)
	tr0.Send(1, 1, 0, []float64{1})
	wantWire(t, tr0, 1, 0)
	tr0.TryRecv(cluster.Any, cluster.Any)
	wantWire(t, tr0, 0, 1)
	m, ok := tr1.RecvDeadline(cluster.Any, cluster.Any, hold/4)
	if !ok { // not due yet, as it should be
		m, ok = tr1.RecvDeadline(cluster.Any, cluster.Any, generous)
	}
	if !ok || m.Iter != 0 || m.Hold != hold {
		t.Fatalf("got (%+v, %v), want iter 0 owed %v s", m, ok, hold)
	}
	if m.DeliveredAt-m.SentAt < hold {
		t.Fatalf("visible %v s after the send, its hold is %v s", m.DeliveredAt-m.SentAt, hold)
	}
}
