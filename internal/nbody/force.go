package nbody

import "math"

// Sim holds the physical constants of a simulation.
type Sim struct {
	// G is the gravitational constant (model units; 1 by default).
	G float64
	// Soft is the Plummer softening length added to pair distances to bound
	// close-encounter forces (the classical ε in (r²+ε²)^{3/2}).
	Soft float64
	// Dt is the timestep Δt.
	Dt float64
}

// DefaultSim returns constants suitable for the unit-scale initial
// conditions in this package.
func DefaultSim() Sim { return Sim{G: 1, Soft: 0.05, Dt: 1e-3} }

// PairOps is the approximate floating-point cost of one pairwise force
// evaluation; the paper reports "about 70 floating point operations".
const PairOps = 70

// SpecOpsPerParticle is the cost of speculating one particle's position
// (eq. 10); the paper reports 12 flops.
const SpecOpsPerParticle = 12

// CheckOpsPerPair is the cost of evaluating eq. 11 for one (remote, local)
// particle pair; derived from the paper's "error checking involves 24
// operations" split into a per-remote part and a per-pair part.
const CheckOpsPerPair = 12

// CheckOpsPerRemote is the one-off cost per remote particle of computing the
// speculation error ‖r*−r‖ used by eq. 11.
const CheckOpsPerRemote = 10

// PairAccel returns the acceleration exerted on a body at position pos by a
// body of mass m at position src, using Plummer softening.
func (s Sim) PairAccel(pos, src Vec3, m float64) Vec3 {
	d := src.Sub(pos)
	r2 := d.Norm2() + s.Soft*s.Soft
	inv := 1.0 / (r2 * math.Sqrt(r2))
	return d.Scale(s.G * m * inv)
}

// AccelOn computes the total gravitational acceleration on each particle of
// `on` due to every particle in each source set. A source particle at the
// same position as the target (self-interaction when the local set appears
// among the sources) contributes nothing beyond softening, but the classical
// formulation excludes exact self-pairs; we skip pairs at zero distance.
func (s Sim) AccelOn(on []Particle, sources ...[]Particle) []Vec3 {
	return s.accelInto(nil, on, sources)
}

// accelInto is AccelOn reusing acc's backing array when it is large enough.
// Each pass over the sources carries two targets (an odd tail pairs the last
// target with itself). SQRTSD merges into its destination register, so with
// one target every pair's square root waits for the one before it; two
// independent chains run at the divider's throughput. Each target keeps the
// per-pair expression d·((G·m)·(1/(r²·√r²))) and the source order 0…N−1, so
// the result is bit-identical to summing one target at a time.
func (s Sim) accelInto(acc []Vec3, on []Particle, sources [][]Particle) []Vec3 {
	acc = resize(acc, len(on))
	soft2 := s.Soft * s.Soft
	for i := 0; i < len(on); i += 2 {
		k := min(i+1, len(on)-1)
		pi, pk := on[i].Pos, on[k].Pos
		var ai, ak Vec3
		for _, set := range sources {
			for j := range set {
				gm := s.G * set[j].Mass
				di, dk := set[j].Pos.Sub(pi), set[j].Pos.Sub(pk)
				// r² == 0 is self or exactly coincident: skip.
				if r2 := di.Norm2(); r2 != 0 {
					r2 += soft2
					ai = ai.Add(di.Scale(gm * (1.0 / (r2 * math.Sqrt(r2)))))
				}
				if r2 := dk.Norm2(); r2 != 0 {
					r2 += soft2
					ak = ak.Add(dk.Scale(gm * (1.0 / (r2 * math.Sqrt(r2)))))
				}
			}
		}
		acc[i], acc[k] = ai, ak
	}
	return acc
}
