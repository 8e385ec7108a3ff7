package inbox

import (
	"math"
	"testing"
	"time"

	"specomp/internal/cluster"
)

// Everything put at once comes out in due order, and equal holds in the
// order they were put — whatever order the holds arrived in.
func TestDueOrderThenArrivalOrder(t *testing.T) {
	const quantum = 0.05 // seconds between hold classes, far above the time 300 Puts take
	b := New()
	for i := 0; i < 300; i++ {
		b.Put(cluster.Message{Iter: i, Hold: float64((i*7)%3) * quantum})
	}
	lastHold, lastIter := -1.0, -1
	for n := 0; n < 300; n++ {
		m, ok := b.Take(math.Inf(1))
		if !ok {
			t.Fatal("blocking take returned nothing")
		}
		if m.Hold < lastHold || (m.Hold == lastHold && m.Iter < lastIter) {
			t.Fatalf("take %d: (hold %v, put %d) after (hold %v, put %d)", n, m.Hold, m.Iter, lastHold, lastIter)
		}
		lastHold, lastIter = m.Hold, m.Iter
	}
	if m, ok := b.Take(math.Inf(-1)); ok {
		t.Fatalf("extra message %+v", m)
	}
}

// A queue that never drains reuses the front it has handed over instead of
// growing for ever.
func TestQueueThatNeverDrainsStaysSmall(t *testing.T) {
	b := New()
	const depth = 8
	for i := 0; i < depth; i++ {
		b.Put(cluster.Message{Iter: i})
	}
	for i := depth; i < 10000; i++ {
		b.Put(cluster.Message{Iter: i})
		m, ok := b.Take(math.Inf(-1))
		if !ok || m.Iter != i-depth {
			t.Fatalf("take %d: got (%+v, %v), want iter %d", i, m, ok, i-depth)
		}
	}
	if c := cap(b.q); c > 4*depth {
		t.Fatalf("queue of %d messages grew to capacity %d", depth, c)
	}
}

// Several goroutines putting while one takes, some of it blocked: nothing
// is lost and each sender's messages come out in the order it put them.
func TestConcurrentPutsOneTaker(t *testing.T) {
	const senders, each = 4, 2000
	b := New()
	for s := 0; s < senders; s++ {
		go func() {
			for i := 0; i < each; i++ {
				b.Put(cluster.Message{Src: s, Iter: i})
			}
		}()
	}
	next := make([]int, senders)
	for n := 0; n < senders*each; n++ {
		var m cluster.Message
		ok := false
		if n%3 == 0 {
			m, ok = b.Take(math.Inf(1))
		} else {
			for !ok {
				m, ok = b.Take(1e-3)
			}
		}
		if m.Iter != next[m.Src] {
			t.Fatalf("sender %d: took message %d, put order says %d", m.Src, m.Iter, next[m.Src])
		}
		next[m.Src]++
	}
	if m, ok := b.Take(0); ok {
		t.Fatalf("extra message %+v", m)
	}
}

func TestValidHold(t *testing.T) {
	for _, h := range []float64{0, math.Copysign(0, -1), 1e-9, 2e-3, 3600, 9.2e9} {
		if !ValidHold(h) {
			t.Errorf("ValidHold(%v) = false", h)
		}
	}
	for _, h := range []float64{-1e-9, -1, math.NaN(), math.Inf(1), math.Inf(-1), 9.3e9, 1e300} {
		if ValidHold(h) {
			t.Errorf("ValidHold(%v) = true", h)
		}
	}
	if d := time.Duration(9.2e9 * float64(time.Second)); d <= 0 {
		t.Fatalf("the largest hold accepted overflows a Duration: %v", d)
	}
}

// BenchmarkInbox prices the inbox on the engine's two hot calls: one message
// through (Put then a polling Take) and a poll of an empty inbox. Both must
// read 0 allocs/op.
func BenchmarkInbox(b *testing.B) {
	b.Run("put-take", func(b *testing.B) {
		in := New()
		m := cluster.Message{Src: 1, Tag: 1, Data: []float64{1, 2, 3}}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			in.Put(m)
			if _, ok := in.Take(math.Inf(-1)); !ok {
				b.Fatal("a zero-hold message was not visible")
			}
		}
	})
	b.Run("poll-empty", func(b *testing.B) {
		in := New()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := in.Take(math.Inf(-1)); ok {
				b.Fatal("an empty inbox returned a message")
			}
		}
	})
}
