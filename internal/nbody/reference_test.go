package nbody

import (
	"math"
	"math/rand"
	"testing"

	"specomp/internal/core"
)

// referenceAccel is accelInto as it stood before the two-target kernel, one
// target at a time, kept verbatim: the oracle for bit identity and the
// "before" half of BenchmarkComputeKernelReference.
func (s Sim) referenceAccel(acc []Vec3, on []Particle, sources [][]Particle) []Vec3 {
	acc = resize(acc, len(on))
	for i := range on {
		var a Vec3
		pi := on[i].Pos
		for _, set := range sources {
			for j := range set {
				d := set[j].Pos.Sub(pi)
				r2 := d.Norm2()
				if r2 == 0 {
					continue // self or exactly coincident: skip
				}
				r2 += s.Soft * s.Soft
				inv := 1.0 / (r2 * math.Sqrt(r2))
				a = a.Add(d.Scale(s.G * set[j].Mass * inv))
			}
		}
		acc[i] = a
	}
	return acc
}

// referenceCheck is App.Check as it stood before eq11 (a Norm and a division
// per pair), kept verbatim but for taking decoded particles: the oracle for
// verdict identity on finite data.
func referenceCheck(a *App, pred, act, loc []Particle) core.CheckResult {
	bad := 0
	for i := range act {
		specErr := pred[i].Pos.Sub(act[i].Pos).Norm()
		for j := range loc {
			dist := act[i].Pos.Sub(loc[j].Pos).Norm()
			if dist == 0 || specErr/dist > a.Theta {
				bad++
				continue
			}
			if a.Instr != nil {
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
	total := len(act) * len(loc)
	res := core.CheckResult{
		Bad:   bad,
		Total: total,
		Ops:   float64(CheckOpsPerRemote*len(act)) + float64(CheckOpsPerPair*total),
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

// randParticles draws n particles in the unit sphere with masses spread
// log-uniformly over 1e-12…1e12.
func randParticles(rng *rand.Rand, n int) []Particle {
	ps := make([]Particle, n)
	for i := range ps {
		ps[i] = Particle{
			Mass: math.Pow(10, 24*rng.Float64()-12),
			Pos:  randInSphere(rng, 1),
			Vel:  randInSphere(rng, 1),
		}
	}
	return ps
}

func TestAccelMatchesReferenceBits(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	targetCounts := []int{0, 1, 2, 3, 4, 5, 8, 13, 16, 31}
	pairs := 0
	for c := 0; c < 240; c++ {
		s := Sim{G: math.Pow(10, 4*rng.Float64()-2), Soft: 0.05 * float64(c%3), Dt: 1e-3}
		on := randParticles(rng, targetCounts[c%len(targetCounts)])
		// One, several, empty and unequal source sets; every third case puts
		// the targets among the sources (self pairs), and every fifth adds
		// exact copies of targets (coincident particles, r² == 0).
		var sources [][]Particle
		for k := c % 4; k >= 0; k-- {
			sources = append(sources, randParticles(rng, rng.Intn(9)*(k%2+c%2)))
		}
		if c%3 == 0 {
			sources = append(sources, on)
		}
		if c%5 == 0 && len(on) > 0 {
			dup := randParticles(rng, 3)
			for i := range dup {
				dup[i].Pos = on[rng.Intn(len(on))].Pos
			}
			sources = append(sources, dup)
		}
		want := s.referenceAccel(nil, on, sources)
		got := s.accelInto(nil, on, sources)
		if len(got) != len(want) {
			t.Fatalf("case %d: %d accelerations, want %d", c, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if math.Float64bits(g.X) != math.Float64bits(w.X) ||
				math.Float64bits(g.Y) != math.Float64bits(w.Y) ||
				math.Float64bits(g.Z) != math.Float64bits(w.Z) {
				t.Fatalf("case %d target %d of %d: got %v, reference %v", c, i, len(on), g, w)
			}
		}
		for _, set := range sources {
			pairs += len(on) * len(set)
		}
	}
	if pairs < 5000 {
		t.Fatalf("only %d pairs compared; the generator degenerated", pairs)
	}
}

// boundaryCase builds one check input whose displacements sit on eq. 11's
// boundary: remote particle i is displaced by exactly θ·dist to one local
// partner (the generator of TestEq11BoundsPairForceErrorProperty), one ulp
// either side of it, by nothing, or at random; some local particles coincide
// with a remote one (dist = 0).
func boundaryCase(rng *rand.Rand, theta float64) (pred, act, loc []Particle) {
	act = randParticles(rng, 1+rng.Intn(5))
	loc = randParticles(rng, 1+rng.Intn(5))
	for j := range loc {
		loc[j].Pos = loc[j].Pos.Add(Vec3{2, 0, 0})
	}
	if rng.Intn(4) == 0 {
		loc[rng.Intn(len(loc))].Pos = act[rng.Intn(len(act))].Pos
	}
	pred = append([]Particle(nil), act...)
	for i := range pred {
		dir := randInSphere(rng, 1)
		if dir.Norm() == 0 {
			continue
		}
		dist := act[i].Pos.Sub(loc[rng.Intn(len(loc))].Pos).Norm()
		var size float64
		switch rng.Intn(5) {
		case 0:
			size = theta * dist
		case 1:
			size = math.Nextafter(theta*dist, math.Inf(1))
		case 2:
			size = math.Nextafter(theta*dist, 0)
		case 3:
			size = 0 // specErr = 0
		default:
			size = theta * dist * math.Pow(10, 4*rng.Float64()-2)
		}
		pred[i].Pos = act[i].Pos.Add(dir.Scale(size / dir.Norm()))
	}
	return pred, act, loc
}

func TestCheckMatchesReferenceVerdicts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	thetas := []float64{0, 1e-4, 1e-3, 1e-2, 0.1}
	cases, inBracket := 0, 0
	for _, mode := range []string{"plain", "instr", "adapt"} {
		for _, theta := range thetas {
			got := NewApp(DefaultSim(), nil, 0, 0, theta, nil)
			ref := NewApp(DefaultSim(), nil, 0, 0, theta, nil)
			switch mode {
			case "instr":
				got.Instr, ref.Instr = &Instrument{}, &Instrument{}
			case "adapt":
				ad := AdaptiveTheta{TargetBadFrac: 0.3, Gain: 0.07, MinTheta: theta / 8, MaxTheta: 8 * theta}
				got.Adapt, ref.Adapt = &ad, &ad
			}
			for c := 0; c < 25; c++ {
				pred, act, loc := boundaryCase(rng, got.Theta)
				for i := range act {
					tol := newEq11(pred[i].Pos, act[i].Pos, got.Theta)
					for j := range loc {
						if d2 := act[i].Pos.Sub(loc[j].Pos).Norm2(); d2 >= tol.lo && d2 <= tol.hi && tol.lo > 0 {
							inBracket++
						}
					}
				}
				want := referenceCheck(ref, pred, act, loc)
				res := got.Check(1, Encode(pred), Encode(act), Encode(loc), c)
				if res != want {
					t.Fatalf("%s θ=%g case %d: Check = %+v, reference %+v", mode, theta, c, res, want)
				}
				if got.Theta != ref.Theta {
					t.Fatalf("%s θ=%g case %d: θ adapted to %g, reference %g", mode, theta, c, got.Theta, ref.Theta)
				}
				if got.Instr != nil && *got.Instr != *ref.Instr {
					t.Fatalf("%s θ=%g case %d: instrument %+v, reference %+v", mode, theta, c, *got.Instr, *ref.Instr)
				}
				cases++
			}
		}
	}
	if cases < 300 {
		t.Fatalf("%d cases, want at least 300", cases)
	}
	// The boundary displacements must land inside the bracket, or the exact
	// fall-through was never compared.
	if inBracket < 100 {
		t.Fatalf("only %d pairs fell between lo and hi", inBracket)
	}
}

func TestEq11BracketOnlyWhenNormal(t *testing.T) {
	act := Vec3{1, 0, 0}
	off := func(specErr float64) Vec3 { return Vec3{1, specErr, 0} }
	for _, tc := range []struct {
		what           string
		pred           Vec3
		theta          float64
		wantLo, wantHi float64 // 0, +Inf: every pair takes the exact test
	}{
		{"θ = 0", off(1e-3), 0, 0, math.Inf(1)},
		{"θ < 0", off(1e-3), -1, 0, math.Inf(1)},
		{"θ NaN", off(1e-3), math.NaN(), 0, math.Inf(1)},
		{"θ denormal", off(1e-3), 1e-320, 0, math.Inf(1)},
		{"(specErr/θ)² overflows", off(1e-3), 1e-160, 0, math.Inf(1)},
		{"(specErr/θ)² underflows", off(1e-150), 1e50, 0, math.Inf(1)},
		{"specErr overflows", Vec3{1e200, 0, 0}, 1e-3, 0, math.Inf(1)},
		{"NaN prediction", Vec3{math.NaN(), 0, 0}, 1e-3, 0, math.Inf(1)},
		// A perfect prediction passes any pair at a distance; so does any
		// prediction at θ = +Inf.
		{"specErr = 0", act, 1e-3, 0, 0},
		{"θ = +Inf", off(1e-3), math.Inf(1), 0, 0},
	} {
		if tol := newEq11(tc.pred, act, tc.theta); tol.lo != tc.wantLo || tol.hi != tc.wantHi {
			t.Errorf("%s: bracket [%g, %g], want [%g, %g]", tc.what, tol.lo, tol.hi, tc.wantLo, tc.wantHi)
		}
	}
	if tol := newEq11(off(1e-3), act, 1e-3); !(tol.lo > 1-1e-11 && tol.lo < 1 && tol.hi > 1 && tol.hi < 1+1e-11) {
		t.Errorf("specErr/θ = 1: bracket [%g, %g], want 1 ∓ 1e-12", tol.lo, tol.hi)
	}
}

func TestNaNNeverPassesCheck(t *testing.T) {
	nan := math.NaN()
	act := []Particle{{Mass: 1, Pos: Vec3{0, 0, 0}}, {Mass: 1, Pos: Vec3{0, 1, 0}}}
	loc := []Particle{{Mass: 1, Pos: Vec3{3, 0, 0}}, {Mass: 1, Pos: Vec3{4, 0, 0}}, {Mass: 1, Pos: Vec3{5, 0, 0}}}
	with := func(ps []Particle, i int, x float64) []float64 {
		ps = append([]Particle(nil), ps...)
		ps[i].Pos.X = x
		return Encode(ps)
	}
	for _, theta := range []float64{0.01, math.Inf(1)} {
		app := NewApp(DefaultSim(), nil, 0, 0, theta, nil)
		if res := app.Check(1, Encode(act), Encode(act), Encode(loc), 0); res.Bad != 0 || res.Total != 6 {
			t.Fatalf("θ=%g: perfect prediction: %+v", theta, res)
		}
		if res := app.Check(1, with(act, 0, nan), Encode(act), Encode(loc), 0); res.Bad != 3 {
			t.Errorf("θ=%g: NaN prediction of one remote particle: Bad = %d, want its 3 pairs", theta, res.Bad)
		}
		if res := app.Check(1, Encode(act), with(act, 1, nan), Encode(loc), 0); res.Bad != 3 {
			t.Errorf("θ=%g: NaN actual: Bad = %d, want its 3 pairs", theta, res.Bad)
		}
		if res := app.Check(1, Encode(act), Encode(act), with(loc, 2, nan), 0); res.Bad != 2 {
			t.Errorf("θ=%g: NaN local particle: Bad = %d, want its 2 pairs", theta, res.Bad)
		}
	}
	// Check and Correct read a NaN pair the same way: Correct replaces it.
	w := WithCorrection{NewApp(DefaultSim(), nil, 0, 0, 0.01, nil)}
	fixed := Decode(w.Correct(Encode(loc), Encode(loc), 1, with(act, 0, nan), Encode(act), 0))
	if !math.IsNaN(fixed[0].Vel.X) {
		t.Error("Correct left a NaN-predicted pair uncorrected (the NaN force was not subtracted)")
	}
}

func TestCheckRejectsMalformedPrediction(t *testing.T) {
	act := randParticles(rand.New(rand.NewSource(1)), 4)
	loc := randParticles(rand.New(rand.NewSource(2)), 3)
	instr := &Instrument{}
	app := NewApp(DefaultSim(), nil, 0, 0, 0.5, instr)
	for _, n := range []int{0, 3, 5} {
		pred := Encode(append(append([]Particle(nil), act...), act[0])[:n])
		res := app.Check(1, pred, Encode(act), Encode(loc), 0)
		if res.Bad != 12 || res.Total != 12 {
			t.Errorf("prediction of %d particles for 4: %+v, want Bad = Total = 12", n, res)
		}
	}
	if instr.PairsBad != 36 || instr.ChecksFailed != 3 {
		t.Errorf("instrument %+v, want 36 bad pairs over 3 failed checks", *instr)
	}
}
