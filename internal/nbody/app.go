package nbody

import (
	"math"

	"specomp/internal/core"
)

// Instrument collects off-the-clock diagnostics while an App runs — the
// measurements behind Table 3. It is shared by all processors of one
// simulation; the DES schedules at most one simulated process at a time, so
// no locking is needed.
type Instrument struct {
	// MaxForceErr is the largest relative error between the pair force
	// computed from a speculated position and from the actual position,
	// over pairs whose eq.-11 check ACCEPTED the speculation (failed pairs
	// are repaired, so their error does not survive). This matches the
	// paper's per-pair correction semantics.
	MaxForceErr float64
	// ChecksAccepted and ChecksFailed count message-level validations.
	ChecksAccepted, ChecksFailed int
	// PairsBad and PairsTotal count eq.-11 pair tests.
	PairsBad, PairsTotal int64
}

// App adapts the N-body simulation to the speculative engine: one instance
// runs on each simulated processor, owning a contiguous block of particles.
type App struct {
	sim    Sim
	pid    int
	nTotal int
	init   []Particle
	// Theta is the eq.-11 error threshold θ.
	Theta float64
	// Adapt, if non-nil, tunes Theta at run time toward a target
	// recomputation rate.
	Adapt *AdaptiveTheta
	// Instr, if non-nil, records accuracy diagnostics (not charged to the
	// simulated clock).
	Instr *Instrument

	// Scratch reused across calls; one engine goroutine drives an App.
	dec      [][]Particle   // decoded payloads, one slot per view entry or argument
	sources  [][]Particle   // Compute's non-empty decoded view entries
	acc      []Vec3         // Compute's accelerations
	tol      []eq11         // Correct's per-remote tolerances
	next     []Particle     // advanced (Compute) or extrapolated (SpeculateInto) particles
	out, fix core.ResultBuf // Compute and Correct results
}

// decode parses data into scratch slot i.
func (a *App) decode(i int, data []float64) []Particle {
	for len(a.dec) <= i {
		a.dec = append(a.dec, nil)
	}
	a.dec[i] = decodeInto(a.dec[i], data)
	return a.dec[i]
}

// AdaptiveTheta adjusts θ multiplicatively after every check so that the
// fraction of out-of-tolerance pairs tracks TargetBadFrac — automating the
// accuracy/recomputation trade-off of Table 3.
type AdaptiveTheta struct {
	// TargetBadFrac is the desired fraction of bad pairs per check (the
	// model's k; the paper found ~2% a good operating point).
	TargetBadFrac float64
	// Gain is the multiplicative step per check (e.g. 0.05 → ±5%).
	Gain float64
	// MinTheta and MaxTheta clamp the excursion.
	MinTheta, MaxTheta float64
}

// adjust nudges theta toward the target bad fraction.
func (ad *AdaptiveTheta) adjust(theta float64, bad, total int) float64 {
	if total == 0 || ad.Gain <= 0 {
		return theta
	}
	if float64(bad)/float64(total) > ad.TargetBadFrac {
		theta *= 1 + ad.Gain // too many repairs: loosen
	} else {
		theta *= 1 - ad.Gain // headroom: tighten for accuracy
	}
	if ad.MinTheta > 0 && theta < ad.MinTheta {
		theta = ad.MinTheta
	}
	if ad.MaxTheta > 0 && theta > ad.MaxTheta {
		theta = ad.MaxTheta
	}
	return theta
}

// NewApp creates the processor-pid adapter. local is the block of particles
// this processor owns; nTotal is the global particle count.
func NewApp(sim Sim, local []Particle, nTotal, pid int, theta float64, instr *Instrument) *App {
	return &App{sim: sim, pid: pid, nTotal: nTotal, init: local, Theta: theta, Instr: instr}
}

var _ core.App = (*App)(nil)
var _ core.ComputerInto = (*App)(nil)
var _ core.Speculator = (*App)(nil)

// InitLocal implements core.App.
func (a *App) InitLocal() []float64 { return Encode(a.init) }

// Compute implements core.App: ComputeInto into the next result buffer.
func (a *App) Compute(view [][]float64, t int) []float64 { return a.out.Compute(a, view, a.pid, t) }

// ComputeInto implements core.ComputerInto: decode the global view, sum the
// forces on the local block by the O(N²) direct sum, advance it.
func (a *App) ComputeInto(out []float64, view [][]float64, t int) {
	local := a.decode(a.pid, view[a.pid])
	a.sources = a.sources[:0]
	for k, part := range view {
		if len(part) > 0 {
			a.sources = append(a.sources, a.decode(k, part))
		}
	}
	a.acc = a.sim.accelInto(a.acc, local, a.sources)
	a.next = a.sim.stepInto(a.next, local, a.acc)
	encodeInto(out, a.next)
}

// ComputeOps implements core.App: N_i·N pairwise force evaluations.
func (a *App) ComputeOps() float64 {
	return float64(len(a.init)) * float64(a.nTotal) * PairOps
}

// SpeculateInto implements core.Speculator with the paper's eq. 10:
// positions extrapolate along the last known velocity,
// r*(t) = r(t−s) + v(t−s)·s·Δt, velocities are held constant.
func (a *App) SpeculateInto(dst []float64, peer int, hist [][]float64, steps int) float64 {
	ps := a.decode(0, hist[0])
	a.next = resize(a.next, len(ps))
	out := a.next
	dt := a.sim.Dt * float64(steps)
	for i, p := range ps {
		out[i] = Particle{Mass: p.Mass, Pos: p.Pos.Add(p.Vel.Scale(dt)), Vel: p.Vel}
	}
	encodeInto(dst, out)
	return float64(SpecOpsPerParticle * len(ps))
}

// eq11 is the paper's eq. 11 for one remote particle a: its speculated
// position is acceptable against a local particle b when
// ‖r*_a − r_a‖ / ‖r_a − r_b‖ ≤ θ. The ratio diverges as pairs get close —
// exactly where a position error corrupts the force most, so close pairs
// are (correctly) the first to fail; a NaN never passes.
//
// lo and hi bracket (specErr/θ)² by (1 ± 1e-12). The exact test rounds three
// times (two square roots, one division: 1.5 ulp ≈ 3e-16, each monotone), so
// d² = ‖r_a − r_b‖² outside the bracket has its verdict without a square
// root or a division. The bracket is [0, +Inf] — every pair takes the exact
// test — unless θ and the bracket are normal floats (not θ ≤ 0, NaN,
// overflow, underflow) or it is exactly [0, 0]: a perfect prediction.
type eq11 struct{ specErr, theta, lo, hi float64 }

func newEq11(pred, act Vec3, theta float64) eq11 {
	const minNormal = 0x1p-1022
	e := eq11{specErr: pred.Sub(act).Norm(), theta: theta, hi: math.Inf(1)}
	c := e.specErr / theta
	lo, hi := c*c*(1-1e-12), c*c*(1+1e-12)
	if theta >= minNormal && (lo >= minNormal || c == 0) && hi <= math.MaxFloat64 {
		e.lo, e.hi = lo, hi
	}
	return e
}

// accepts reports eq. 11 for a local particle b at d2 = ‖r_a − r_b‖².
func (e eq11) accepts(d2 float64) bool {
	if d2 > e.hi {
		return true
	}
	if d2 < e.lo {
		return false
	}
	dist := math.Sqrt(d2)
	return dist != 0 && e.specErr/dist <= e.theta
}

// Check implements core.App with eq. 11 over every (remote, local) pair,
// four remote particles at a time: checkVector where the CPU has AVX2 and
// no Instrument records force errors, else (or when the block needs the
// exact test) checkGo. A prediction of the wrong length fails them all.
func (a *App) Check(peer int, predicted, actual, local []float64, t int) core.CheckResult {
	pred := a.decode(0, predicted)
	act := a.decode(1, actual)
	loc := a.decode(2, local)
	total := len(act) * len(loc)
	res := core.CheckResult{
		Total: total,
		Ops:   float64(CheckOpsPerRemote*len(act)) + float64(CheckOpsPerPair*total),
	}
	if len(pred) != len(act) {
		res.Bad, act = total, nil
	}
	for i := 0; i < len(act); i += 4 {
		n := min(4, len(act)-i)
		if !vector || a.Instr != nil || !a.checkVector(&res, pred[i:i+n], act[i:i+n], loc) {
			a.checkGo(&res, pred[i:i+n], act[i:i+n], loc)
		}
	}
	if a.Instr != nil {
		a.Instr.PairsBad += int64(res.Bad)
		a.Instr.PairsTotal += int64(res.Total)
		if res.Bad > 0 {
			a.Instr.ChecksFailed++
		} else {
			a.Instr.ChecksAccepted++
		}
	}
	if a.Adapt != nil {
		a.Theta = a.Adapt.adjust(a.Theta, res.Bad, res.Total)
	}
	return res
}

// bracketBlock is four remote particles, one per lane of bracketAVX2:
// positions and eq.-11 brackets in, bad-pair counts out. The field order is
// the kernel's layout.
type bracketBlock struct {
	x, y, z, lo, hi [4]float64
	bad             [4]int64
}

// checkVector decides eq. 11 for up to four remote particles against every
// local one by their brackets alone, one remote per lane of bracketAVX2 (a
// short block repeats its last remote in the spare lanes), and adds their
// bad pairs to res. It adds nothing and reports false when some pair needs
// the exact test — inside its bracket (every pair, for a remote whose
// bracket is [0, +Inf]) or NaN — and the block then takes checkGo.
func (a *App) checkVector(res *core.CheckResult, pred, act, loc []Particle) bool {
	var b bracketBlock
	for l := range 4 {
		k := min(l, len(act)-1)
		tol := newEq11(pred[k].Pos, act[k].Pos, a.Theta)
		p := act[k].Pos
		b.x[l], b.y[l], b.z[l], b.lo[l], b.hi[l] = p.X, p.Y, p.Z, tol.lo, tol.hi
	}
	if !bracketAVX2(&b, loc) {
		return false
	}
	for _, n := range b.bad[:len(act)] {
		res.Bad += int(n)
	}
	return true
}

// checkGo is eq. 11 pair by pair for each remote particle against every
// local one, adding bad pairs to res and, when a.Instr is set, recording
// the force error of each accepted pair.
func (a *App) checkGo(res *core.CheckResult, pred, act, loc []Particle) {
	for i := range act {
		tol := newEq11(pred[i].Pos, act[i].Pos, a.Theta)
		for j := range loc {
			if !tol.accepts(act[i].Pos.Sub(loc[j].Pos).Norm2()) {
				res.Bad++
				continue
			}
			if a.Instr != nil {
				// Accepted pair: its force error survives in the result.
				fs := a.sim.PairAccel(loc[j].Pos, pred[i].Pos, pred[i].Mass)
				fa := a.sim.PairAccel(loc[j].Pos, act[i].Pos, act[i].Mass)
				if den := fa.Norm(); den > 0 {
					if rel := fs.Sub(fa).Norm() / den; rel > a.Instr.MaxForceErr {
						a.Instr.MaxForceErr = rel
					}
				}
			}
		}
	}
}

// RepairOps implements core.App: each out-of-tolerance pair costs two pair
// force evaluations (subtract the speculated contribution, add the actual).
func (a *App) RepairOps(r core.CheckResult) float64 {
	return float64(2 * PairOps * r.Bad)
}

// SplitParticles cuts a particle set into consecutive blocks of the given
// sizes (e.g. from partition.Proportional). It panics if the sizes do not
// sum to len(ps).
func SplitParticles(ps []Particle, counts []int) [][]Particle {
	out := make([][]Particle, len(counts))
	for i, c := range counts {
		out[i], ps = ps[:c], ps[c:]
	}
	if len(ps) != 0 {
		panic("nbody: partition sizes do not sum to particle count")
	}
	return out
}

// MaxPairwiseRelErr returns the maximum relative position error between two
// particle sets, a convenience for comparing speculative and reference runs;
// +Inf if any position is NaN.
func MaxPairwiseRelErr(a, b []Particle) float64 {
	worst := 0.0
	for i := range a {
		if i >= len(b) {
			break
		}
		d := a[i].Pos.Sub(b[i].Pos).Norm()
		scale := b[i].Pos.Norm()
		if scale < 1e-12 {
			scale = 1e-12
		}
		worst = max(worst, d/scale) // max keeps a NaN
	}
	if math.IsNaN(worst) {
		return math.Inf(1)
	}
	return worst
}
