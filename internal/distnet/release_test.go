package distnet

import (
	"testing"
	"time"

	"specomp/internal/inbox"
)

// Every test of this package — and every node process a test re-executes
// this binary into — runs with released payload rows NaN-filled: a node that
// read a row after its engine gave it back, or after its link writer encoded
// it, would compute on NaN.
func init() { inbox.PoisonReleased = true }

// TestUntracedFleetAllocsPerMsg: an untraced four-rank jacobi fleet — the
// wire-a2a shape, in one process — allocates next to nothing per message.
// Each payload crosses in rows the inbox lends: the sender's copy goes back
// once its link writer has encoded it, the receiver's once its engine is done
// with it, and the engine logs and clones nothing per broadcast.
func TestUntracedFleetAllocsPerMsg(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	spec := RunSpec{App: "jacobi", Procs: 4, N: 64, MaxIter: 3000}
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
		t.Logf("rank %d: %.3f allocations per message (%d sent, %d received)", rep.Rank, rep.AllocsPerMsg, rep.MsgsSent, rep.MsgsRecvd)
		if rep.AllocsPerMsg > 0.1 {
			t.Errorf("rank %d allocates %.3f times per message, want at most 0.1", rep.Rank, rep.AllocsPerMsg)
		}
	}
}
