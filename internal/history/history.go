// Package history provides fixed-capacity ring buffers holding the most
// recent snapshots of a peer's variables — the storage behind the paper's
// backward window (BW): "the maximum number of past values of the variables
// used in the speculation function".
package history

// Ring is a bounded history of snapshots. The zero value is unusable; create
// one with NewRing. Pushing beyond capacity discards the oldest snapshot.
type Ring[T any] struct {
	buf   []T
	start int // index of oldest element
	n     int
}

// NewRing creates a ring holding up to capacity snapshots. Push stores the
// value as given — a T containing a slice or pointer stays aliased to the
// caller's memory, so a caller that reuses its buffers pushes a copy.
func NewRing[T any](capacity int) *Ring[T] {
	if capacity <= 0 {
		panic("history: capacity must be positive")
	}
	return &Ring[T]{buf: make([]T, capacity)}
}

// Cap returns the ring's capacity (the backward window size).
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Len returns the number of snapshots currently stored.
func (r *Ring[T]) Len() int { return r.n }

// Push appends a snapshot as the newest entry, evicting the oldest if full;
// the evicted snapshot is returned so the caller can recycle its buffers.
func (r *Ring[T]) Push(v T) (evicted T, wasEvicted bool) {
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = v
		r.n++
		return evicted, false
	}
	evicted = r.buf[r.start]
	r.buf[r.start] = v
	r.start = (r.start + 1) % len(r.buf)
	return evicted, true
}

// At returns the snapshot `back` steps into the past: At(0) is the newest,
// At(Len()-1) the oldest. It panics if back is out of range.
func (r *Ring[T]) At(back int) T {
	if back < 0 || back >= r.n {
		panic("history: At out of range")
	}
	idx := (r.start + r.n - 1 - back) % len(r.buf)
	return r.buf[idx]
}

// NewestFirst returns the stored snapshots ordered newest first, which is the
// convention the predict package uses (hist[0] = x(t−1), hist[1] = x(t−2)…).
// The returned slice is freshly allocated.
func (r *Ring[T]) NewestFirst() []T {
	out := make([]T, r.n)
	for i := 0; i < r.n; i++ {
		out[i] = r.At(i)
	}
	return out
}

// Reset empties the ring without reallocating.
func (r *Ring[T]) Reset() {
	var zero T
	for i := range r.buf {
		r.buf[i] = zero
	}
	r.start, r.n = 0, 0
}

// IterRing is a fixed-capacity associative ring indexed by iteration number:
// iteration t lives in slot t mod capacity, so lookups and inserts are O(1)
// with no hashing and no per-entry allocation. It is the storage primitive
// behind the engine's value plane: per-iteration state (snapshots, views,
// predictions) whose live range is a sliding window of bounded width.
//
// Putting iteration t evicts whatever older iteration previously occupied
// slot t mod capacity; the evicted value is returned so callers can recycle
// its buffers. The zero value is unusable; create one with NewIterRing.
type IterRing[T any] struct {
	slots []iterSlot[T]
	n     int
	max   int // highest iteration ever Put (valid when any Put happened)
	put   bool
}

type iterSlot[T any] struct {
	iter int
	ok   bool
	v    T
}

// NewIterRing creates a ring able to hold `capacity` consecutive iterations.
func NewIterRing[T any](capacity int) *IterRing[T] {
	if capacity <= 0 {
		panic("history: capacity must be positive")
	}
	return &IterRing[T]{slots: make([]iterSlot[T], capacity)}
}

// Cap returns the width of the iteration window the ring can hold.
func (r *IterRing[T]) Cap() int { return len(r.slots) }

// Len returns the number of iterations currently stored.
func (r *IterRing[T]) Len() int { return r.n }

// MaxIter returns the highest iteration ever Put, and whether any Put has
// happened. Evictions and deletions do not lower it; it is an upper bound
// for descending scans.
func (r *IterRing[T]) MaxIter() (int, bool) { return r.max, r.put }

func (r *IterRing[T]) slot(iter int) *iterSlot[T] {
	i := iter % len(r.slots)
	if i < 0 {
		i += len(r.slots)
	}
	return &r.slots[i]
}

// Get returns the value stored for iteration iter.
func (r *IterRing[T]) Get(iter int) (T, bool) {
	s := r.slot(iter)
	if s.ok && s.iter == iter {
		return s.v, true
	}
	var zero T
	return zero, false
}

// Put stores v for iteration iter, replacing any value already stored for
// that iteration. When the slot held a DIFFERENT (older or newer) iteration,
// that entry is evicted and returned so the caller can recycle it.
func (r *IterRing[T]) Put(iter int, v T) (evicted T, evictedIter int, wasEvicted bool) {
	s := r.slot(iter)
	if s.ok && s.iter != iter {
		evicted, evictedIter, wasEvicted = s.v, s.iter, true
		r.n--
	}
	// Entry count only grows when the slot was empty or just vacated.
	if !s.ok || wasEvicted {
		r.n++
	}
	s.iter, s.ok, s.v = iter, true, v
	if !r.put || iter > r.max {
		r.max = iter
	}
	r.put = true
	return evicted, evictedIter, wasEvicted
}

// Delete removes iteration iter, returning its value for recycling.
func (r *IterRing[T]) Delete(iter int) (T, bool) {
	s := r.slot(iter)
	if s.ok && s.iter == iter {
		v := s.v
		var zero T
		s.v, s.ok = zero, false
		r.n--
		return v, true
	}
	var zero T
	return zero, false
}
