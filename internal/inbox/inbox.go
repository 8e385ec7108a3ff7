// Package inbox is the receive side of both wall-clock transports (realtime
// and distnet), and with it their one delivery rule: a message is in the
// receiver's inbox the moment it arrives and becomes visible Message.Hold
// seconds later by the inbox's own clock. The injected delay is owed at the
// receiver, so nothing runs per message — a taker that never yields sees on
// its next take exactly what a NIC would have buffered for it, however busy
// either side is.
//
// A hold is owed at the queue: a Put that is not yet due arms the inbox's
// one timer for the earliest due time and wakes nobody, and the timer wakes
// a waiting taker once, when the message falls due.
//
// The type is exported only because the two transport packages share it.
package inbox

import (
	"fmt"
	"math"
	"sync"
	"time"

	"specomp/internal/cluster"
)

// forever is a due time or deadline that never comes.
const forever = time.Duration(math.MaxInt64)

// Inbox is one receiver's arrived messages, ordered by due time (arrival +
// Hold) and, among equal due times, by arrival. Put may be called from any
// goroutine; Take from one goroutine at a time.
type Inbox struct {
	// origin is the inbox clock's zero. Arrivals are stamped here rather than
	// by the transport's clock: a distnet node starts its readers before it
	// sets its own clock origin.
	origin time.Time
	// wake tells a waiting Take to read the queue again: a Put of a message
	// due at once posts it, and so does the timer when it fires. One token
	// is enough: the taker re-reads the whole queue when it wakes. Both
	// share the channel so that a zero-hold wait is one plain receive.
	wake chan struct{}

	mu   sync.Mutex
	q    []entry // q[head:] is the queue, ascending by due
	head int

	// timer owes the queue's holds and Take's deadlines. It is made on the
	// first arm (most inboxes never hold a message) and released by Close.
	timer timer
	// armed is the instant timer is set for, forever when no setting is
	// pending. Once it has passed, only a Take reading the queue clears it:
	// until then the expiry's wake may still be on its way, and re-arming
	// the timer would discard an expiry nobody has read.
	armed  time.Duration
	closed bool

	// rows lends payload rows (Row, Release): a freelist per exact length,
	// under a lock of its own so lending never waits behind the queue.
	rowMu sync.Mutex
	rows  map[int]*rowClass
}

// rowClass is one length's freelist; out counts its rows lent and not yet
// released, so the freelist never outgrows the rows in flight at once.
type rowClass struct {
	free [][]float64
	out  int
}

// PoisonReleased, set by tests only (before any row is lent), NaN-fills
// every released row: a reader still holding one computes on NaN.
var PoisonReleased bool

type entry struct {
	due time.Duration
	m   cluster.Message
}

// New returns an empty inbox whose clock starts now.
func New() *Inbox {
	return &Inbox{origin: time.Now(), wake: make(chan struct{}, 1), armed: forever, rows: make(map[int]*rowClass)}
}

// ValidHold reports whether h seconds is a hold an inbox can owe: not
// negative, not NaN, and representable as a time.Duration.
func ValidHold(h float64) bool {
	return h >= 0 && h*float64(time.Second) < math.MaxInt64
}

// MustAny panics unless (src, tag) is (Any, Any). The engine receives only
// that, so an inbox keeps no selector; selective receive belongs to
// *cluster.Proc alone.
func MustAny(src, tag int) {
	if src != cluster.Any || tag != cluster.Any {
		panic(fmt.Sprintf("inbox: receive from src %d tag %d: a wall-clock transport receives only (Any, Any), as the engine does; selective receive is *cluster.Proc's", src, tag))
	}
}

// Put queues m, due m.Hold seconds from now (ValidHold(m.Hold) must hold).
// It never blocks and an inbox has no capacity. Arrivals are inserted from
// the back, so traffic with one constant hold costs O(1) per message. A
// message due at once wakes a waiting Take; one not yet due wakes nobody, it
// only brings the timer forward when it is due before the timer's setting.
// If that setting has passed unread, Put posts the timer's wake instead:
// the taker it was for re-reads the queue and arms the timer itself.
func (b *Inbox) Put(m cluster.Message) {
	now := time.Since(b.origin)
	due := now + time.Duration(m.Hold*float64(time.Second))
	b.mu.Lock()
	if len(b.q) == cap(b.q) && b.head > 0 { // reuse the taken front before growing
		n := copy(b.q, b.q[b.head:])
		clear(b.q[n:])
		b.q, b.head = b.q[:n], 0
	}
	b.q = append(b.q, entry{})
	i := len(b.q) - 1
	for ; i > b.head && b.q[i-1].due > due; i-- {
		b.q[i] = b.q[i-1]
	}
	b.q[i] = entry{due: due, m: m}
	held := due > now
	if prev := b.armed; held && prev <= now {
		post(b.wake)
	} else if held && due < prev {
		b.arm(due, now)
		if prev <= time.Since(b.origin) { // it passed between the two clock reads
			post(b.wake)
		}
	}
	b.mu.Unlock()
	if !held {
		post(b.wake)
	}
}

// Take removes and returns the earliest-due message once it is due, waiting
// at most wait seconds for one: -Inf (or any wait ≤ 0) polls, +Inf waits for
// ever. A wait lasts until the next Put of a message due at once or until
// the earlier of the earliest due time and the end of the wait, so a
// short-hold message queued behind a long-hold one is released at its own
// due time. After Close, a Take that would wait for a due time or a
// deadline returns nothing at once; one that waits only for a Put still
// waits.
func (b *Inbox) Take(wait float64) (cluster.Message, bool) {
	var end time.Duration // 0: a poll
	if wait > 0 {
		end = forever
		if ValidHold(wait) {
			end = time.Since(b.origin) + time.Duration(wait*float64(time.Second))
		}
	}
	for {
		if end > 0 {
			// A token left by a Put or an expiry already served would only
			// wake this wait for nothing: whatever it announced is in the
			// queue before it is posted, so the read below sees it.
			select {
			case <-b.wake:
			default:
			}
		}
		b.mu.Lock()
		now := time.Since(b.origin) // under the lock: every queued arrival precedes it
		if b.armed <= now {
			b.armed = forever // this read of the queue is what the expiry was for
		}
		next := forever
		if b.head < len(b.q) {
			e := &b.q[b.head]
			if e.due <= now {
				m := e.m
				*e = entry{} // the queue pins no payload it has handed over
				if b.head++; b.head == len(b.q) {
					b.q, b.head = b.q[:0], 0
				}
				b.mu.Unlock()
				return m, true
			}
			next = e.due
		}
		if now >= end {
			b.mu.Unlock()
			return cluster.Message{}, false
		}
		until := min(next, end)
		if until != forever && until != b.armed {
			b.arm(until, now)
		}
		closed := b.closed
		b.mu.Unlock()
		if closed && until != forever {
			return cluster.Message{}, false
		}
		<-b.wake
		if testWaitHook != nil {
			testWaitHook()
		}
	}
}

// testWaitHook, set by tests only, runs each time a Take's wait returns.
var testWaitHook func()

// Close releases the inbox's timer. Put still queues after Close but arms
// nothing, and Take no longer waits for a due time or a deadline. Safe to
// call more than once, from any goroutine.
func (b *Inbox) Close() {
	b.mu.Lock()
	t := b.timer
	b.timer, b.closed = nil, true
	b.mu.Unlock()
	if t != nil {
		t.close()
	}
}

// Row lends a length-n payload row with unspecified contents, to be given
// back with Release once nothing references it. Safe from any goroutine.
func (b *Inbox) Row(n int) []float64 {
	if n == 0 {
		return []float64{} // does not allocate
	}
	b.rowMu.Lock()
	defer b.rowMu.Unlock()
	c := b.rows[n]
	if c == nil {
		c = &rowClass{}
		b.rows[n] = c
	}
	c.out++
	if k := len(c.free); k > 0 {
		r := c.free[k-1]
		c.free[k-1] = nil
		c.free = c.free[:k-1]
		return r
	}
	return make([]float64, n)
}

// Copy lends a row holding a copy of data (nil stays nil).
func (b *Inbox) Copy(data []float64) []float64 {
	if data == nil {
		return nil
	}
	r := b.Row(len(data))
	copy(r, data)
	return r
}

// Release takes back, once, a row Row lent; a row beyond what its length
// has out is left to the collector, and a nil inbox takes nothing back. Safe
// from any goroutine.
func (b *Inbox) Release(r []float64) {
	if b == nil || len(r) == 0 {
		return
	}
	if PoisonReleased {
		for i := range r {
			r[i] = math.NaN()
		}
	}
	b.rowMu.Lock()
	defer b.rowMu.Unlock()
	if c := b.rows[len(r)]; c != nil && c.out > 0 {
		c.out--
		c.free = append(c.free, r)
	}
}

// arm sets the timer, made here on first use, to fire at inbox-clock instant
// at; now is the caller's reading of that clock. Under mu; after Close it
// does nothing.
func (b *Inbox) arm(at, now time.Duration) {
	if b.closed {
		return
	}
	if b.timer == nil {
		b.timer = newTimer(b.wake)
	}
	b.timer.set(at - now)
	b.armed = at
}
