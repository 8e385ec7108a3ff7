package distnet

// Checkpoint custody. Only the newest snapshot per rank is ever read back
// (by a rejoin, an evicted job's resume, a restarted coordinator), so
// custody is a latest-wins cell per rank, not a log: the event loop
// overwrites the cell in memory and one committer goroutine saves whatever
// the cells hold whenever the store is free. A burst of checkpoints costs
// the disk one write per rank per commit round, and no frame ever queues
// behind an fsync. Durability is promised only at stop(true) — see there.

import (
	"sync"
	"time"

	"specomp/internal/checkpoint"
)

// custodyCell holds one rank's newest accepted snapshot.
type custodyCell struct {
	blob        []byte    // what a rejoin restores from; nil = none yet
	epoch, iter int       // blob's order key, valid once keyed
	keyed       bool      // false for a blob inherited from the store at startup
	dirty       bool      // blob not yet taken by the committer
	since       time.Time // when the cell went dirty (committer lag)
}

type custody struct {
	store checkpoint.Store // nil: memory-only custody, no committer

	mu         sync.Mutex
	cond       *sync.Cond // broadcast when a cell changes, a round commits, custody stops
	cells      []custodyCell
	covered    int       // cells holding a blob
	batchSince time.Time // oldest `since` in the round being saved; zero when idle
	stopped    bool
	saves      int           // blobs accepted
	commits    int           // blobs handed to store.Save
	done       chan struct{} // closed once the committer has exited
}

// newCustody seeds one cell per rank from what the store already holds (a
// predecessor's custody) and starts the committer.
func newCustody(store checkpoint.Store, ranks int) *custody {
	c := &custody{store: store, cells: make([]custodyCell, ranks), done: make(chan struct{})}
	c.cond = sync.NewCond(&c.mu)
	if store == nil {
		close(c.done)
		return c
	}
	for r := range c.cells {
		if blob, ok := store.Load(r); ok {
			c.cells[r].blob = blob
			c.covered++
		}
	}
	go c.commitLoop()
	return c
}

// put offers rank's snapshot. It replaces the cell unless it orders before
// what this coordinator already accepted for the rank by (epoch, iteration)
// — custody never moves backwards — or carries no SPCK header (nothing
// could restore from it), or custody has stopped.
func (c *custody) put(rank int, blob []byte) bool {
	epoch, iter, ok := checkpoint.Order(blob)
	c.mu.Lock()
	defer c.mu.Unlock()
	cell := &c.cells[rank]
	if !ok || c.stopped || cell.keyed && (epoch < cell.epoch || epoch == cell.epoch && iter < cell.iter) {
		return false
	}
	if cell.blob == nil {
		c.covered++
	}
	cell.blob, cell.epoch, cell.iter, cell.keyed = blob, epoch, iter, true
	c.saves++
	if c.store != nil && !cell.dirty {
		cell.dirty, cell.since = true, time.Now()
	}
	c.cond.Broadcast()
	return true
}

// get returns rank's newest snapshot, if any.
func (c *custody) get(rank int) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rank < 0 || rank >= len(c.cells) || c.cells[rank].blob == nil {
		return nil, false
	}
	return c.cells[rank].blob, true
}

// commitLoop is the committer: each round takes every dirty cell's current
// blob and saves them with the lock released, so puts landing meanwhile
// coalesce into the next round.
func (c *custody) commitLoop() {
	defer close(c.done)
	var ranks []int
	var blobs [][]byte
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		ranks, blobs = ranks[:0], blobs[:0]
		for r := range c.cells {
			if cell := &c.cells[r]; cell.dirty {
				cell.dirty = false
				if len(ranks) == 0 || cell.since.Before(c.batchSince) {
					c.batchSince = cell.since
				}
				ranks, blobs = append(ranks, r), append(blobs, cell.blob)
			}
		}
		if len(ranks) == 0 {
			if c.stopped {
				return
			}
			c.cond.Wait()
			continue
		}
		c.mu.Unlock()
		for i, r := range ranks {
			c.store.Save(r, blobs[i])
		}
		c.mu.Lock()
		c.commits += len(ranks)
		c.batchSince = time.Time{}
		c.cond.Broadcast()
	}
}

// stop ends custody and returns once the committer has exited. With durable
// set it is the barrier behind every durability promise (an acked evict, a
// drain, any non-success Wait): the newest accepted blob of every rank is
// saved and the directory synced first. Without it pending cells are
// dropped — the caller is about to Clear the store — though a Save already
// in flight still finishes, so nothing lands after that Clear.
func (c *custody) stop(durable bool) {
	c.mu.Lock()
	c.stopped = true
	for r := range c.cells {
		c.cells[r].dirty = c.cells[r].dirty && durable
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	<-c.done
	if s, ok := c.store.(interface{ Sync() error }); ok && durable {
		_ = s.Sync() // the store latches the failure for its holder's Err
	}
}

// awaitCovered blocks until every rank has a snapshot in custody, reporting
// false if custody stops or wait elapses first.
func (c *custody) awaitCovered(wait time.Duration) bool {
	deadline := time.Now().Add(wait)
	wake := time.AfterFunc(wait, func() {
		c.mu.Lock() // under the lock, so it cannot slip between a waiter's check and its Wait
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer wake.Stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.covered < len(c.cells) && !c.stopped && time.Now().Before(deadline) {
		c.cond.Wait()
	}
	return c.covered == len(c.cells)
}

// counters reports blobs accepted, blobs saved, and the age in seconds of
// the oldest accepted blob the store has not been handed yet (0 when none).
func (c *custody) counters() (saves, commits int, lagSec float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	oldest := c.batchSince
	for r := range c.cells {
		if cell := &c.cells[r]; cell.dirty && (oldest.IsZero() || cell.since.Before(oldest)) {
			oldest = cell.since
		}
	}
	if !oldest.IsZero() {
		lagSec = time.Since(oldest).Seconds()
	}
	return c.saves, c.commits, lagSec
}
