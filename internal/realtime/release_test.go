package realtime

import (
	"math"
	"testing"

	"specomp/internal/core"
	"specomp/internal/inbox"
	"specomp/internal/nbody"
	"specomp/internal/partition"
)

// Every test of this package runs with released payload rows NaN-filled: an
// engine that read a row after giving it back would compute on NaN.
func init() { inbox.PoisonReleased = true }

// TestNBodyBlockingMatchesEvolve: at FW = 0 the paper's case study on
// goroutines equals the serial reference to the bit. Every payload a rank
// computed on is the row its peer's Send filled, read before the engine gave
// it back.
func TestNBodyBlockingMatchesEvolve(t *testing.T) {
	const n, procs, iters = 48, 4, 12
	ps := nbody.UniformSphere(n, 11)
	sim := nbody.DefaultSim()
	want := nbody.Encode(sim.Evolve(ps, iters))
	blocks := nbody.SplitParticles(ps, partition.Proportional(n, []float64{1, 1, 1, 1}))
	res, err := Run(Config{Procs: procs, MaxIter: iters}, func(pid, _ int) core.App {
		return nbody.NewApp(sim, blocks[pid], n, pid, 0.01, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	for _, r := range res {
		got = append(got, r.Final...)
	}
	if len(got) != len(want) {
		t.Fatalf("gathered %d values, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("value %d is %v, serial reference %v", i, got[i], want[i])
		}
	}
}
