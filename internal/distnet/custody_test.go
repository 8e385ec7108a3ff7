package distnet

// Custody committer tests against a gated fake store: every Save announces
// itself and then blocks until the test lets it through, so each schedule
// below is fixed by channel handshakes, never by sleeping.

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"

	"specomp/internal/checkpoint"
)

// gatedStore is a checkpoint.Store whose Saves the test single-steps.
type gatedStore struct {
	entered chan savedBlob // one send per Save, before it blocks
	gate    chan struct{}  // one receive lets one Save finish

	mu    sync.Mutex
	blobs map[int][]byte
	log   []string // "save" / "sync", in completion order
}

type savedBlob struct {
	rank int
	blob []byte
}

func newGatedStore() *gatedStore {
	return &gatedStore{entered: make(chan savedBlob), gate: make(chan struct{}), blobs: make(map[int][]byte)}
}

func (g *gatedStore) Save(rank int, blob []byte) {
	g.entered <- savedBlob{rank, blob}
	<-g.gate
	g.mu.Lock()
	g.blobs[rank] = blob
	g.log = append(g.log, "save")
	g.mu.Unlock()
}

func (g *gatedStore) Load(rank int) ([]byte, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	b, ok := g.blobs[rank]
	return b, ok
}

func (g *gatedStore) Sync() error {
	g.mu.Lock()
	g.log = append(g.log, "sync")
	g.mu.Unlock()
	return nil
}

// step lets the Save currently blocked in the store finish.
func (g *gatedStore) step() { g.gate <- struct{}{} }

// snap builds a real SPCK blob for rank with the given order key.
func snap(rank, epoch, iter int) []byte {
	return checkpoint.Encode(&checkpoint.Snapshot{Proc: rank, Epoch: epoch, Validated: iter, Frontier: iter})
}

// orderOf decodes a blob's (epoch, iter) for failure messages and checks.
func orderOf(t *testing.T, blob []byte) [2]int {
	t.Helper()
	e, it, ok := checkpoint.Order(blob)
	if !ok {
		t.Fatalf("blob of %d bytes has no SPCK header", len(blob))
	}
	return [2]int{e, it}
}

// TestCustodyLatestWinsUnderBurst: while the store is busy with the first
// snapshot, a burst of 50 more coalesces into exactly one further Save —
// of the newest.
func TestCustodyLatestWinsUnderBurst(t *testing.T) {
	g := newGatedStore()
	c := newCustody(g, 1)
	c.put(0, snap(0, 0, 1))
	first := <-g.entered // the committer is now inside Save(iter 1)
	if got := orderOf(t, first.blob); got != [2]int{0, 1} {
		t.Fatalf("first save is %v, want (0,1)", got)
	}
	for it := 2; it <= 51; it++ {
		if !c.put(0, snap(0, 0, it)) {
			t.Fatalf("put of iter %d refused", it)
		}
	}
	if _, _, lag := c.counters(); lag <= 0 {
		t.Error("committer lag reads 0 with an uncommitted cell and a save in flight")
	}
	g.step()
	second := <-g.entered
	if got := orderOf(t, second.blob); got != [2]int{0, 51} {
		t.Fatalf("second save is %v, want the newest (0,51)", got)
	}
	g.step()
	c.stop(true)
	saves, commits, lag := c.counters()
	if saves != 51 || commits != 2 || lag != 0 {
		t.Errorf("accepted %d, committed %d, lag %g; want 51, 2, 0", saves, commits, lag)
	}
	if blob, _ := g.Load(0); !bytes.Equal(blob, snap(0, 0, 51)) {
		t.Error("store does not hold the newest snapshot")
	}
}

// TestCustodyNeverMovesBackwards: an older frame arriving late — even while
// its successor is still being written — changes neither memory nor disk; a
// higher epoch wins whatever its iteration.
func TestCustodyNeverMovesBackwards(t *testing.T) {
	g := newGatedStore()
	c := newCustody(g, 2)
	c.put(0, snap(0, 0, 10))
	<-g.entered // Save(0,10) in flight
	for _, late := range [][2]int{{0, 5}, {0, 9}} {
		if c.put(0, snap(0, late[0], late[1])) {
			t.Errorf("late frame %v accepted over (0,10)", late)
		}
	}
	if !c.put(0, snap(0, 0, 10)) {
		t.Error("a duplicate of the newest frame must be harmless, not refused")
	}
	if !c.put(0, snap(0, 1, 3)) {
		t.Error("epoch 1 refused: a respawned incarnation restarts below its predecessor's iteration")
	}
	if c.put(0, snap(0, 0, 99)) {
		t.Error("stale-epoch frame (0,99) accepted over (1,3)")
	}
	if c.put(1, []byte("not a snapshot")) {
		t.Error("blob without an SPCK header accepted")
	}
	if blob, _ := c.get(0); orderOf(t, blob) != [2]int{1, 3} {
		t.Errorf("memory holds %v, want (1,3)", orderOf(t, blob))
	}
	g.step()
	if next := <-g.entered; orderOf(t, next.blob) != [2]int{1, 3} {
		t.Errorf("committer wrote %v after (0,10), want (1,3)", orderOf(t, next.blob))
	}
	g.step()
	c.stop(true)
	if blob, _ := g.Load(0); orderOf(t, blob) != [2]int{1, 3} {
		t.Errorf("store ends on %v, want (1,3)", orderOf(t, blob))
	}
	if _, ok := c.get(1); ok {
		t.Error("rank 1 has custody though nothing valid was offered")
	}
}

// TestCustodyInheritedBlobDoesNotPinTheOrder: a snapshot inherited from a
// predecessor's store carries that run's epoch; the first frame of this run
// must replace it even at epoch 0.
func TestCustodyInheritedBlobDoesNotPinTheOrder(t *testing.T) {
	store := checkpoint.NewMemStore()
	store.Save(0, snap(0, 3, 500))
	c := newCustody(store, 1)
	if blob, ok := c.get(0); !ok || orderOf(t, blob) != [2]int{3, 500} {
		t.Fatal("cell not seeded from the store")
	}
	if !c.put(0, snap(0, 0, 505)) {
		t.Fatal("first frame of the new run refused because the inherited blob had a higher epoch")
	}
	c.stop(true)
	if blob, _ := store.Load(0); orderOf(t, blob) != [2]int{0, 505} {
		t.Errorf("store holds %v, want (0,505)", orderOf(t, blob))
	}
}

// TestCustodyBarrier: stop(true) returns only after the newest accepted
// blob of every rank is saved, and syncs the directory after the last Save.
func TestCustodyBarrier(t *testing.T) {
	const ranks = 3
	g := newGatedStore()
	c := newCustody(g, ranks)
	c.put(0, snap(0, 0, 1))
	<-g.entered // committer busy; everything below waits in the cells
	for r := 0; r < ranks; r++ {
		c.put(r, snap(r, 0, 7))
		c.put(r, snap(r, 0, 8))
	}
	stopped := make(chan struct{})
	go func() {
		c.stop(true)
		close(stopped)
	}()
	g.step() // Save(0, iter 1) completes; the barrier still owes three saves
	for i := 0; i < ranks; i++ {
		sb := <-g.entered
		if got := orderOf(t, sb.blob); got != [2]int{0, 8} {
			t.Errorf("barrier saved %v for rank %d, want the newest (0,8)", got, sb.rank)
		}
		select {
		case <-stopped:
			t.Fatalf("barrier returned with %d saves outstanding", ranks-i)
		default:
		}
		g.step()
	}
	<-stopped
	for r := 0; r < ranks; r++ {
		if blob, ok := g.Load(r); !ok || orderOf(t, blob) != [2]int{0, 8} {
			t.Errorf("rank %d not durable at its newest snapshot after the barrier", r)
		}
	}
	if n := len(g.log); n != ranks+2 || g.log[n-1] != "sync" {
		t.Errorf("store log %v: want %d saves then one sync", g.log, ranks+1)
	}
	if c.put(0, snap(0, 0, 9)) {
		t.Error("put after stop accepted")
	}
	if blob, _ := c.get(0); orderOf(t, blob) != [2]int{0, 8} {
		t.Error("put after stop changed memory")
	}
}

// TestCustodyStopWithoutFlush: the success path drops pending cells (its
// caller Clears the store next) but never returns with a Save in flight.
func TestCustodyStopWithoutFlush(t *testing.T) {
	g := newGatedStore()
	c := newCustody(g, 2)
	c.put(0, snap(0, 0, 1))
	<-g.entered
	c.put(0, snap(0, 0, 2))
	c.put(1, snap(1, 0, 2))
	stopped := make(chan struct{})
	go func() {
		c.stop(false)
		close(stopped)
	}()
	for dropped := false; !dropped; runtime.Gosched() { // until stop has dropped the pending cells
		c.mu.Lock()
		dropped = c.stopped
		c.mu.Unlock()
	}
	select {
	case <-stopped:
		t.Fatal("stop returned while a Save was still in flight")
	default:
	}
	g.step()
	<-stopped
	if blob, _ := g.Load(0); orderOf(t, blob) != [2]int{0, 1} {
		t.Errorf("rank 0 store holds %v, want only the in-flight (0,1)", orderOf(t, blob))
	}
	if _, ok := g.Load(1); ok {
		t.Error("a dropped cell was written after stop(false)")
	}
	if len(g.log) != 1 {
		t.Errorf("store log %v: want the one in-flight save and no sync", g.log)
	}
	if blob, _ := c.get(1); orderOf(t, blob) != [2]int{0, 2} {
		t.Error("memory custody lost the dropped cell's blob")
	}
}

// TestCustodyConcurrentPuts hammers put/get/counters from many goroutines
// against a free-running store; meaningful under -race.
func TestCustodyConcurrentPuts(t *testing.T) {
	const ranks, writers, frames = 4, 8, 200
	store := checkpoint.NewMemStore()
	c := newCustody(store, ranks)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 1; it <= frames; it++ {
				c.put(w%ranks, snap(w%ranks, 0, it))
				c.get(w % ranks)
				c.counters()
			}
		}(w)
	}
	wg.Wait()
	if !c.awaitCovered(time.Minute) {
		t.Fatal("custody not covered after every rank was written")
	}
	c.stop(true)
	for r := 0; r < ranks; r++ {
		if blob, ok := store.Load(r); !ok || orderOf(t, blob) != [2]int{0, frames} {
			t.Errorf("rank %d: store does not end on iter %d", r, frames)
		}
	}
	if _, commits, _ := c.counters(); commits > writers*frames {
		t.Errorf("%d commits for %d frames", commits, writers*frames)
	}
}

// TestCustodyAwaitCovered: coverage is reached by the last missing rank, a
// stop releases a waiter that can no longer be satisfied, and an elapsed
// wait reports false.
func TestCustodyAwaitCovered(t *testing.T) {
	c := newCustody(nil, 2)
	if c.awaitCovered(0) {
		t.Error("empty custody reported covered")
	}
	c.put(0, snap(0, 0, 1))
	got := make(chan bool)
	go func() { got <- c.awaitCovered(time.Minute) }()
	c.put(1, snap(1, 0, 1))
	if !<-got {
		t.Error("waiter not released by the rank that completed coverage")
	}

	d := newCustody(nil, 2)
	go func() { got <- d.awaitCovered(time.Minute) }()
	d.stop(false)
	if <-got {
		t.Error("stopped custody reported covered")
	}
}
