package distnet

// The checkpoint path's ownership rules on the socket runtime: a node's
// coordStore copies the borrowed blob into a buffer it cycles with the link
// writer, the encoder streams it without assembling the frame, and on the
// coordinator a checkpoint frame hands its decode buffer to the custody cell.
// Each test drives the schedule where sharing a buffer would show.

import (
	"bufio"
	"bytes"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"specomp/internal/checkpoint"
)

// TestStreamedFrameMatchesAssembledFrame: the Encoder writes a frame with a
// tail (checkpoint, obs) as head · blob · checksum without assembling it;
// the bytes on the stream are exactly the assembled frame writeFrame
// produces, for empty, small and larger-than-bufio blobs, interleaved with
// ordinary frames through one Encoder.
func TestStreamedFrameMatchesAssembledFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	var streamed, assembled bytes.Buffer
	bw := bufio.NewWriterSize(&streamed, 64<<10) // a link writer's configuration
	enc := NewEncoder(bw, false)
	for _, n := range []int{0, 1, 37_628, 64<<10 - 17, 64 << 10, 200_000} {
		blob := make([]byte, n)
		rng.Read(blob)
		for _, f := range []Frame{
			{Type: FrameCheckpoint, Rank: 3, Blob: blob},
			{Type: FrameObs, Rank: 1, Blob: blob},
			{Type: FrameBarrier},
		} {
			if err := enc.Encode(&f); err != nil {
				t.Fatal(err)
			}
			if _, err := writeFrame(&assembled, nil, &f); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), assembled.Bytes()) {
		t.Fatalf("streamed encoding differs from the assembled one (%d vs %d bytes)", streamed.Len(), assembled.Len())
	}
	if err := enc.Encode(&Frame{Type: FrameCheckpoint, Blob: make([]byte, MaxFrame)}); err == nil {
		t.Error("a checkpoint frame over MaxFrame was encoded")
	}
}

// TestCheckpointFrameOwnsItsBlob: a decoded checkpoint frame's blob is the
// caller's forever — it takes the decode buffer instead of a copy, so the
// decoder must not decode the next frame into the same memory; a blob that
// is a small part of a buffer sized by something larger is copied out
// instead of pinning it.
func TestCheckpointFrameOwnsItsBlob(t *testing.T) {
	var stream bytes.Buffer
	first, second := benchSnapshot(0, 1), benchSnapshot(0, 2)
	for _, f := range []Frame{
		{Type: FrameCheckpoint, Blob: first},
		{Type: FrameCheckpoint, Blob: second},
		{Type: FrameObs, Blob: make([]byte, 4*len(first))}, // sizes the decode buffer up
		{Type: FrameCheckpoint, Blob: first},
	} {
		if _, err := writeFrame(&stream, nil, &f); err != nil {
			t.Fatal(err)
		}
	}
	dec := NewDecoder(&stream)
	var a, b, obs, c Frame
	for _, f := range []*Frame{&a, &b, &obs, &c} {
		if err := dec.Decode(f); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(a.Blob, first) || !bytes.Equal(b.Blob, second) || !bytes.Equal(c.Blob, first) {
		t.Fatal("an earlier checkpoint frame's blob changed when later frames were decoded")
	}
	if cap(c.Blob) > 2*len(c.Blob) {
		t.Errorf("a %d-byte snapshot pins a %d-byte buffer", len(c.Blob), cap(c.Blob))
	}
}

// pipedCoordLink is a coordinator link whose far end the test reads by hand:
// net.Pipe is synchronous, so the link's writer sits inside Write until the
// test consumes the bytes.
func pipedCoordLink(t *testing.T) (*peerConn, net.Conn) {
	t.Helper()
	near, far := net.Pipe()
	pc := newPeerConn(-1, near, 64, wireOpts{})
	t.Cleanup(func() { far.Close(); pc.close() })
	return pc, far
}

// TestCoordStoreSaveCopiesOutOfTheBorrowedBlob: two Saves from one reused
// engine buffer, both queued while the link writer is stuck mid-write, reach
// the far end as two frames holding their own iterations; once encoded their
// buffers are back in the link's spare slots, and the next Save takes one.
func TestCoordStoreSaveCopiesOutOfTheBorrowedBlob(t *testing.T) {
	link, far := pipedCoordLink(t)
	store := &coordStore{rank: 0, coord: link}

	// stall parks the writer inside a Write: one byte of a beacon read proves
	// it is there, and it stays until the rest is read.
	var one [1]byte
	stall := func() io.Reader {
		link.send(Frame{Type: FrameHeartbeat})
		if _, err := io.ReadFull(far, one[:]); err != nil {
			t.Fatal(err)
		}
		return io.MultiReader(bytes.NewReader(one[:]), far)
	}

	r := stall()
	var engineBuf []byte
	for it := 1; it <= 2; it++ {
		engineBuf = checkpoint.AppendEncode(engineBuf[:0], &checkpoint.Snapshot{Validated: it, Frontier: it})
		store.Save(0, engineBuf)
	}
	clear(engineBuf) // the engine moved on; nothing queued may still read its buffer
	if f, err := readFrame(r); err != nil || f.Type != FrameHeartbeat {
		t.Fatalf("expected the beacon first, got %v frame, err %v", f.Type, err)
	}
	for it := 1; it <= 2; it++ {
		f, err := readFrame(far)
		if err != nil || f.Type != FrameCheckpoint {
			t.Fatalf("frame %d: %v frame, err %v", it, f.Type, err)
		}
		if got := orderOf(t, f.Blob); got != [2]int{0, it} {
			t.Errorf("frame %d carries snapshot %v, want (0,%d)", it, got, it)
		}
	}
	// Frame 2 was flushed after both blobs were handed back.
	if n := len(link.spare); n != 2 {
		t.Fatalf("%d spare blobs after two encoded checkpoint frames, want 2", n)
	}
	stall()
	store.Save(0, engineBuf)
	if n := len(link.spare); n != 1 {
		t.Errorf("%d spare blobs after a Save with the writer stalled, want 1 (Save did not reuse one)", n)
	}
}

// TestCoordStoreSaveOnADeadLink: Save never blocks and never panics, whether
// the link was closed on purpose or its writer died on a socket error, even
// past the send queue's capacity.
func TestCoordStoreSaveOnADeadLink(t *testing.T) {
	blob := snap(0, 0, 1)
	for name, kill := range map[string]func(link *peerConn, far net.Conn){
		"closed": func(link *peerConn, far net.Conn) { go io.Copy(io.Discard, far); link.close() },
		"peer gone": func(link *peerConn, far net.Conn) {
			far.Close()
			link.send(Frame{Type: FrameHeartbeat}) // the write that finds out
			<-link.done
		},
	} {
		t.Run(name, func(t *testing.T) {
			link, far := pipedCoordLink(t)
			kill(link, far)
			done := make(chan struct{})
			go func() {
				defer close(done)
				store := &coordStore{rank: 0, coord: link}
				for i := 0; i < 3*cap(link.out); i++ {
					store.Save(0, blob)
				}
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("Save blocked on a dead coordinator link")
			}
		})
	}
}

// TestCustodyBlobsSurviveOverwrites: on a live coordinator, a store stuck
// inside Save and a Coordinator.Checkpoint caller each hold a blob the cell
// has since replaced three times over; both still read exactly as handed
// out. Whatever a custody cell displaces may be pinned like this, which is
// why the coordinator does not recycle it.
func TestCustodyBlobsSurviveOverwrites(t *testing.T) {
	g := newGatedStore()
	coord := scriptedCoordinator(t, 1, time.Minute, g)
	node := scriptedFleet(t, coord)[0]
	accepted := func(n int) { // returns once custody has accepted n frames (put broadcasts each)
		c := coord.custody
		c.mu.Lock()
		for c.saves < n {
			c.cond.Wait()
		}
		c.mu.Unlock()
	}
	node.send(Frame{Type: FrameCheckpoint, Blob: benchSnapshot(0, 1)})
	saving := <-g.entered // the committer is inside Save with snapshot 1, and stays there
	node.send(Frame{Type: FrameCheckpoint, Blob: benchSnapshot(0, 2)})
	accepted(2)
	handedOut, ok := coord.Checkpoint(0)
	if !ok {
		t.Fatal("no checkpoint in custody")
	}
	for it := 3; it <= 5; it++ {
		node.send(Frame{Type: FrameCheckpoint, Blob: benchSnapshot(0, it)})
	}
	accepted(5)
	if !bytes.Equal(saving.blob, benchSnapshot(0, 1)) {
		t.Error("the blob a Save is still writing changed under it")
	}
	if !bytes.Equal(handedOut, benchSnapshot(0, 2)) {
		t.Error("the blob Coordinator.Checkpoint handed out changed after the cell moved on")
	}
	if now, _ := coord.Checkpoint(0); orderOf(t, now) != [2]int{0, 5} {
		t.Errorf("cell holds %v, want the newest (0,5)", orderOf(t, now))
	}

	// Let the committer run free so the run can end.
	released := make(chan struct{})
	defer close(released)
	go func() {
		for {
			select {
			case g.gate <- struct{}{}:
			case <-g.entered:
			case <-released:
				return
			}
		}
	}()
	report([]*scriptedNode{node})
	node.expect(FrameShutdown)
	node.conn.Close()
	if _, err := coord.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestNodeSurvivesHugeCheckpointEvery: checkpoint_every comes from a tenant's
// job body. A value no run will ever reach used to size every stash ring
// (1e9 slots of 40 bytes per in-edge: the node died of out-of-memory before
// its first iteration); now the run just never checkpoints.
func TestNodeSurvivesHugeCheckpointEvery(t *testing.T) {
	spec := RunSpec{App: "heat", Procs: 2, MaxIter: 30, FW: 2, Rows: 16, Cols: 8, CheckpointEvery: 1_000_000_000}
	coord, err := NewCoordinator(CoordConfig{Spec: spec, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	launchNodes(t, spec.Procs, func(int) NodeConfig { return NodeConfig{Coord: coord.Addr()} })
	reports, err := coord.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reports {
		if rep.Iters != spec.MaxIter {
			t.Errorf("rank %d ran %d iterations, want %d", rep.Rank, rep.Iters, spec.MaxIter)
		}
	}
	if st := coord.Stats(); st.CustodySaves != 0 {
		t.Errorf("%d checkpoints accepted from a run that should never reach one", st.CustodySaves)
	}
}
