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

// Rows come in exact-length classes: a released row is lent again at its own
// length and never at another, a zero-length row is the shared empty one, and
// a class keeps no more rows than it ever had out at once.
func TestRowRelease(t *testing.T) {
	b := New()
	r3, r5 := b.Row(3), b.Row(5)
	if len(r3) != 3 || cap(r3) != 3 || len(r5) != 5 {
		t.Fatalf("Row(3), Row(5) have lengths %d (cap %d) and %d", len(r3), cap(r3), len(r5))
	}
	if e := b.Row(0); e == nil || len(e) != 0 {
		t.Fatalf("Row(0) = %#v, want the empty non-nil row", e)
	}
	b.Release(r3)
	if got := b.Row(5); &got[0] == &r3[0] {
		t.Fatal("a length-3 row was lent as a length-5 one")
	}
	if got := b.Row(3); &got[0] != &r3[0] {
		t.Fatal("a released row was not lent again at its length")
	}
	b.Release(r3)
	b.Release(make([]float64, 3)) // one more than the class has out
	b.Release(make([]float64, 7)) // a length this inbox never lent
	if n := len(b.rows[3].free); n != 1 {
		t.Fatalf("length-3 class keeps %d free rows after one was out, want 1", n)
	}
	if c := b.rows[7]; c != nil {
		t.Fatalf("a foreign length got a class: %+v", c)
	}
}

// The transports lend a row on one goroutine (a link reader or a sender) and
// release it on another (the engine or a link writer): every row comes back,
// none is lent twice at once, and the freelist stays within the rows that
// were ever out together. Run it under -race.
func TestRowReleaseAcrossGoroutines(t *testing.T) {
	const n, inFlight = 20000, 8
	b := New()
	rows := make(chan []float64, inFlight)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := range rows {
			if r[0] != r[1] {
				t.Errorf("row changed while lent: %v", r[:2])
			}
			b.Release(r)
		}
	}()
	for i := 0; i < n; i++ {
		r := b.Row(4)
		r[0], r[1] = float64(i), float64(i)
		rows <- r
	}
	close(rows)
	<-done
	c := b.rows[4]
	if c.out != 0 {
		t.Fatalf("%d rows still out after every release", c.out)
	}
	if len(c.free) > inFlight+2 {
		t.Fatalf("freelist holds %d rows, more than were ever in flight", len(c.free))
	}
}

// With PoisonReleased on, a released row reads NaN: a holder that kept one
// computes on NaN instead of on a later message's values.
func TestPoisonReleased(t *testing.T) {
	PoisonReleased = true
	defer func() { PoisonReleased = false }()
	b := New()
	r := b.Row(2)
	r[0], r[1] = 1, 2
	b.Release(r)
	if !math.IsNaN(r[0]) || !math.IsNaN(r[1]) {
		t.Fatalf("released row reads %v", r)
	}
}

// BenchmarkInbox prices the inbox on the engine's two hot calls, one message
// through (Put then a polling Take) and a poll of an empty inbox, and the row
// pool the transports copy payloads into: a row lent on one goroutine and
// released on another. All must read 0 allocs/op.
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
	b.Run("row-release", func(b *testing.B) {
		in := New()
		rows := make(chan []float64, 64)
		done := make(chan struct{})
		go func() {
			for r := range rows {
				in.Release(r)
			}
			close(done)
		}()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rows <- in.Row(64)
		}
		close(rows)
		<-done
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
