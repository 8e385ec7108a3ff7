package nbody

import (
	"math"
	"testing"

	"specomp/internal/cluster"
	"specomp/internal/core"
	"specomp/internal/netmodel"
	"specomp/internal/partition"
)

// runDistributed runs an N-body simulation on a simulated cluster and
// returns the per-processor results plus the gathered final particle set.
func runDistributed(t *testing.T, ps []Particle, machines []cluster.Machine,
	cfg core.Config, theta float64, instr *Instrument) ([]core.Result, []Particle) {
	t.Helper()
	caps := make([]float64, len(machines))
	for i, m := range machines {
		caps[i] = m.Ops
	}
	counts := partition.Proportional(len(ps), caps)
	blocks := SplitParticles(ps, counts)
	sim := DefaultSim()
	results, err := core.RunCluster(
		cluster.Config{Machines: machines, Net: netmodel.Fixed{D: 0.05}},
		cfg,
		func(p *cluster.Proc) core.App {
			return NewApp(sim, blocks[p.ID()], len(ps), p.ID(), theta, instr)
		})
	if err != nil {
		t.Fatal(err)
	}
	var final []Particle
	for _, r := range results {
		final = append(final, Decode(r.Final)...)
	}
	return results, final
}

// TestDistributedBlockingMatchesSerial: at FW = 0 every rank computes on
// actual values, so the gathered run equals the serial reference to the bit
// — which pins the kernel's summation order (sources 0…N−1 for every target)
// across block boundaries, odd blocks and the two-target pairing.
func TestDistributedBlockingMatchesSerial(t *testing.T) {
	const iters = 12
	for _, n := range []int{48, 97} {
		ps := UniformSphere(n, 11)
		want := DefaultSim().Evolve(ps, iters)
		_, got := runDistributed(t, ps,
			cluster.LinearMachines(4, 1e6, 4),
			core.Config{FW: 0, MaxIter: iters}, 0.01, nil)
		if len(got) != n {
			t.Fatalf("n=%d: gathered %d particles", n, len(got))
		}
		g, w := Encode(got), Encode(want)
		for i := range w {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				t.Errorf("n=%d particle %d: %+v, serial reference %+v", n, i/Floats, got[i/Floats], want[i/Floats])
			}
		}
	}
}

func TestDistributedSpeculativeStaysClose(t *testing.T) {
	const n, iters = 48, 30
	ps := RotatingDisk(n, 13)
	want := DefaultSim().Evolve(ps, iters)
	instr := &Instrument{}
	results, got := runDistributed(t, ps,
		cluster.LinearMachines(4, 1e6, 4),
		core.Config{FW: 1, MaxIter: iters}, 0.01, instr)
	agg := core.Aggregate(results)
	if agg.SpecsMade == 0 {
		t.Fatal("no speculation happened")
	}
	if err := MaxPairwiseRelErr(got, want); err > 0.05 {
		t.Errorf("speculative trajectory drifted %.3f%% from reference", err*100)
	}
	if instr.PairsTotal == 0 {
		t.Error("instrument saw no pair checks")
	}
}

func TestTighterThetaFailsMoreChecks(t *testing.T) {
	const n, iters = 48, 25
	ps := TwoClusters(n, 17)
	fracs := make([]float64, 0, 3)
	for _, theta := range []float64{0.1, 1e-3, 1e-5} {
		instr := &Instrument{}
		runDistributed(t, ps, cluster.UniformMachines(4, 1e6),
			core.Config{FW: 1, MaxIter: iters}, theta, instr)
		fracs = append(fracs, float64(instr.PairsBad)/float64(instr.PairsTotal))
	}
	for i := 1; i < len(fracs); i++ {
		if fracs[i] < fracs[i-1] {
			t.Errorf("bad-pair fraction not increasing as θ tightens: %v", fracs)
		}
	}
	if fracs[len(fracs)-1] == 0 {
		t.Error("θ=1e-5 flagged nothing; speculation unrealistically perfect")
	}
}

func TestForceErrorBoundedByTheta(t *testing.T) {
	// The accepted-speculation force error should scale with θ (the paper's
	// Table 3: θ=0.01 → ~2% max force error). We assert a generous bound:
	// accepted force error stays under ~25·θ for a well-behaved disk.
	const n, iters = 48, 25
	ps := RotatingDisk(n, 19)
	theta := 0.01
	instr := &Instrument{}
	runDistributed(t, ps, cluster.UniformMachines(4, 1e6),
		core.Config{FW: 1, MaxIter: iters}, theta, instr)
	if instr.ChecksAccepted == 0 {
		t.Fatal("no accepted checks")
	}
	if instr.MaxForceErr > 25*theta {
		t.Errorf("max force error %.4f too large for θ=%g", instr.MaxForceErr, theta)
	}
	if math.IsNaN(instr.MaxForceErr) {
		t.Error("NaN force error")
	}
}

func TestSpeculativeRunConservesEnergyAndMomentum(t *testing.T) {
	// Physics sanity under speculation: bounded speculation errors must not
	// wreck the integrator's conservation properties.
	const n, iters = 60, 40
	ps := RotatingDisk(n, 31)
	sim := DefaultSim()
	e0 := sim.Energy(ps)
	_, final := runDistributed(t, ps, cluster.UniformMachines(4, 1e6),
		core.Config{FW: 1, MaxIter: iters}, 0.01, nil)
	e1 := sim.Energy(final)
	if rel := math.Abs(e1-e0) / math.Abs(e0); rel > 0.05 {
		t.Errorf("energy drifted %.2f%% under speculation", rel*100)
	}
	p1 := Momentum(final)
	p0 := Momentum(ps)
	// Speculated forces are not exactly pairwise-symmetric, so momentum is
	// conserved only approximately; the drift must stay small.
	if p1.Sub(p0).Norm() > 0.02 {
		t.Errorf("momentum drifted %v under speculation", p1.Sub(p0))
	}
}

func TestSpeculationImprovesNBodyRuntime(t *testing.T) {
	const n, iters = 64, 15
	ps := UniformSphere(n, 23)
	// Slow network relative to compute: 64 particles over 4 procs at 1e6
	// ops/s → compute/iter ≈ 16·64·70/1e6 ≈ 0.072 s; latency 0.05 s is a
	// substantial fraction, so masking should pay.
	mk := func(fw int) float64 {
		results, _ := runDistributed(t, ps, cluster.UniformMachines(4, 1e6),
			core.Config{FW: fw, MaxIter: iters}, 0.01, nil)
		return core.TotalTime(results)
	}
	t0, t1 := mk(0), mk(1)
	if t1 >= t0 {
		t.Errorf("speculation did not pay: FW1 %.4f vs FW0 %.4f", t1, t0)
	}
}
