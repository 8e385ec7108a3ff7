package nbody

import (
	"math/rand"
	"testing"

	"specomp/internal/cluster"
	"specomp/internal/core"
	"specomp/internal/netmodel"
	"specomp/internal/partition"
)

func runCorrectVsRecompute(t *testing.T, theta float64, useCorrection bool) []Particle {
	t.Helper()
	const n, iters = 48, 20
	ps := TwoClusters(n, 37)
	machines := cluster.UniformMachines(4, 1e6)
	caps := cluster.Capacities(machines)
	counts := partition.Proportional(n, caps)
	blocks := SplitParticles(ps, counts)
	sim := DefaultSim()
	sim.Dt = 0.05 // coarse enough to produce failed checks
	results, err := core.RunCluster(
		cluster.Config{Machines: machines, Net: netmodel.Fixed{D: 0.05}},
		core.Config{FW: 1, MaxIter: iters},
		func(p *cluster.Proc) core.App {
			app := NewApp(sim, blocks[p.ID()], n, p.ID(), theta, nil)
			if useCorrection {
				return WithCorrection{app}
			}
			return app
		})
	if err != nil {
		t.Fatal(err)
	}
	var final []Particle
	for _, r := range results {
		final = append(final, Decode(r.Final)...)
	}
	return final
}

func TestCorrectionEqualsRecomputeAtZeroTheta(t *testing.T) {
	// θ=0 fails every pair, so the correction replaces every speculated
	// pair force — bit-for-bit... up to float association; allow 1e-9.
	corrected := runCorrectVsRecompute(t, 0, true)
	recomputed := runCorrectVsRecompute(t, 0, false)
	for i := range corrected {
		if d := corrected[i].Pos.Sub(recomputed[i].Pos).Norm(); d > 1e-9 {
			t.Fatalf("particle %d: correction diverged from recompute by %g", i, d)
		}
		if d := corrected[i].Vel.Sub(recomputed[i].Vel).Norm(); d > 1e-9 {
			t.Fatalf("particle %d: velocity diverged by %g", i, d)
		}
	}
}

func TestCorrectionStaysNearRecomputeAtModerateTheta(t *testing.T) {
	// At θ>0 the two repair strategies differ only in accepted-pair error,
	// which eq. 11 bounds; trajectories stay close.
	corrected := runCorrectVsRecompute(t, 0.01, true)
	recomputed := runCorrectVsRecompute(t, 0.01, false)
	if err := MaxPairwiseRelErr(corrected, recomputed); err > 0.02 {
		t.Errorf("correction drifted %.4f from recompute at θ=0.01", err)
	}
}

func TestEq11BoundsPairForceErrorProperty(t *testing.T) {
	// Numerical check of the paper's implicit claim: if the eq.-11 ratio
	// ‖Δr‖/dist is at most θ, the relative pair-force error is O(θ) —
	// concretely under ~3θ for small θ (2θ to first order, plus curvature).
	s := Sim{G: 1, Soft: 0, Dt: 0.01}
	rng := rand.New(rand.NewSource(11))
	for _, theta := range []float64{0.001, 0.01, 0.05} {
		worst := 0.0
		for trial := 0; trial < 300; trial++ {
			// Random pair at distance >= ~1, displacement exactly θ·dist.
			a := randInSphere(rng, 1).Add(Vec3{2, 0, 0})
			b := randInSphere(rng, 1)
			dist := a.Sub(b).Norm()
			dir := randInSphere(rng, 1)
			if dir.Norm() == 0 {
				continue
			}
			pred := a.Add(dir.Scale(theta * dist / dir.Norm()))
			fAct := s.PairAccel(b, a, 1)
			fSpec := s.PairAccel(b, pred, 1)
			rel := fSpec.Sub(fAct).Norm() / fAct.Norm()
			if rel > worst {
				worst = rel
			}
		}
		if worst > 3*theta {
			t.Errorf("θ=%g: worst pair force error %.4f exceeds 3θ", theta, worst)
		}
		if worst < theta/2 {
			t.Errorf("θ=%g: worst pair force error %.5f implausibly small", theta, worst)
		}
	}
}
