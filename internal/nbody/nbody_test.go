package nbody

import (
	"math"
	"testing"
	"testing/quick"

	"specomp/internal/core"
)

func TestVec3Ops(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{4, -5, 6}
	if got := a.Add(b); got != (Vec3{5, -3, 9}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != (Vec3{-3, 7, -3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != (Vec3{2, 4, 6}) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Dot(b); got != 4-10+18 {
		t.Errorf("Dot = %v", got)
	}
	if got := (Vec3{3, 4, 0}).Norm(); got != 5 {
		t.Errorf("Norm = %v", got)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	ps := UniformSphere(17, 1)
	got := Decode(Encode(ps))
	if len(got) != len(ps) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range ps {
		if got[i] != ps[i] {
			t.Errorf("particle %d: %+v != %+v", i, got[i], ps[i])
		}
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Decode(make([]float64, Floats+1))
}

func TestEncodeDecodeProperty(t *testing.T) {
	f := func(n8 uint8, seed int64) bool {
		n := int(n8%40) + 1
		ps := UniformSphere(n, seed)
		enc := Encode(ps)
		if len(enc) != n*Floats {
			return false
		}
		dec := Decode(enc)
		for i := range ps {
			if dec[i] != ps[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPairAccelPointsTowardSource(t *testing.T) {
	s := DefaultSim()
	a := s.PairAccel(Vec3{0, 0, 0}, Vec3{1, 0, 0}, 2)
	if a.X <= 0 || a.Y != 0 || a.Z != 0 {
		t.Errorf("acceleration %v should point toward +x", a)
	}
	// Twice the mass, twice the pull.
	a2 := s.PairAccel(Vec3{0, 0, 0}, Vec3{1, 0, 0}, 4)
	if math.Abs(a2.X-2*a.X) > 1e-12 {
		t.Errorf("force not linear in mass: %v vs %v", a2.X, a.X)
	}
	// Farther away, weaker.
	far := s.PairAccel(Vec3{0, 0, 0}, Vec3{3, 0, 0}, 2)
	if far.X >= a.X {
		t.Error("force does not decay with distance")
	}
}

func TestSofteningBoundsForce(t *testing.T) {
	s := DefaultSim()
	near := s.PairAccel(Vec3{}, Vec3{1e-12, 0, 0}, 1)
	if math.IsInf(near.X, 0) || math.IsNaN(near.X) {
		t.Fatal("softened force blew up at zero distance")
	}
	bound := 1.0 / (s.Soft * s.Soft)
	if near.Norm() > bound {
		t.Errorf("softened force %g exceeds 1/eps^2 = %g", near.Norm(), bound)
	}
}

func TestAccelOnSkipsSelfPairs(t *testing.T) {
	s := DefaultSim()
	ps := []Particle{{Mass: 1, Pos: Vec3{0, 0, 0}}, {Mass: 1, Pos: Vec3{1, 0, 0}}}
	acc := s.AccelOn(ps, ps)
	// Newton's third law: equal and opposite.
	if math.Abs(acc[0].X+acc[1].X) > 1e-12 {
		t.Errorf("not symmetric: %v vs %v", acc[0], acc[1])
	}
	if acc[0].X <= 0 {
		t.Errorf("particle 0 should accelerate toward +x: %v", acc[0])
	}
}

func TestMomentumConservation(t *testing.T) {
	s := DefaultSim()
	ps := UniformSphere(30, 2)
	p0 := Momentum(ps)
	evolved := s.Evolve(ps, 50)
	p1 := Momentum(evolved)
	if p1.Sub(p0).Norm() > 1e-10 {
		t.Errorf("momentum drifted: %v -> %v", p0, p1)
	}
}

func TestEnergyApproximatelyConserved(t *testing.T) {
	s := DefaultSim()
	ps := RotatingDisk(40, 3)
	e0 := s.Energy(ps)
	evolved := s.Evolve(ps, 100)
	e1 := s.Energy(evolved)
	if rel := math.Abs(e1-e0) / math.Abs(e0); rel > 0.02 {
		t.Errorf("energy drifted %.2f%% over 100 steps", rel*100)
	}
}

func TestInitialConditionGenerators(t *testing.T) {
	for name, gen := range map[string]func(int, int64) []Particle{
		"sphere":   UniformSphere,
		"disk":     RotatingDisk,
		"clusters": TwoClusters,
	} {
		ps := gen(50, 7)
		if len(ps) != 50 {
			t.Errorf("%s: len = %d", name, len(ps))
		}
		for i, p := range ps {
			if p.Mass <= 0 {
				t.Errorf("%s particle %d: mass %g", name, i, p.Mass)
			}
			if math.IsNaN(p.Pos.Norm()) || math.IsNaN(p.Vel.Norm()) {
				t.Errorf("%s particle %d: NaN state", name, i)
			}
		}
		// Deterministic for a given seed.
		again := gen(50, 7)
		for i := range ps {
			if again[i] != ps[i] {
				t.Errorf("%s: not deterministic at %d", name, i)
				break
			}
		}
	}
}

func TestSpeculateEq10(t *testing.T) {
	sim := Sim{G: 1, Soft: 0.05, Dt: 0.5}
	app := NewApp(sim, nil, 10, 0, 0.01, nil)
	ps := []Particle{{Mass: 2, Pos: Vec3{1, 1, 0}, Vel: Vec3{0.2, -0.4, 0}}}
	pred := make([]float64, Floats)
	ops := app.SpeculateInto(pred, 1, [][]float64{Encode(ps)}, 1)
	got := Decode(pred)[0]
	want := Vec3{1.1, 0.8, 0}
	if got.Pos.Sub(want).Norm() > 1e-12 {
		t.Errorf("speculated pos %v, want %v", got.Pos, want)
	}
	if got.Vel != ps[0].Vel || got.Mass != ps[0].Mass {
		t.Errorf("velocity/mass should be held: %+v", got)
	}
	if ops != SpecOpsPerParticle {
		t.Errorf("ops = %g, want %d", ops, SpecOpsPerParticle)
	}
	// Two steps extrapolate twice as far.
	app.SpeculateInto(pred, 1, [][]float64{Encode(ps)}, 2)
	got2 := Decode(pred)[0]
	want2 := Vec3{1.2, 0.6, 0}
	if got2.Pos.Sub(want2).Norm() > 1e-12 {
		t.Errorf("2-step speculated pos %v, want %v", got2.Pos, want2)
	}
}

func TestCheckEq11(t *testing.T) {
	sim := Sim{G: 1, Soft: 1e-6, Dt: 0.1}
	app := NewApp(sim, nil, 3, 0, 0.01, nil)
	// One local particle at origin; two remote particles at distance 1 and 10.
	local := Encode([]Particle{{Mass: 1, Pos: Vec3{0, 0, 0}}})
	actual := Encode([]Particle{
		{Mass: 1, Pos: Vec3{1, 0, 0}},
		{Mass: 1, Pos: Vec3{10, 0, 0}},
	})
	// Predictions off by 0.05: ratios 0.05/1 = 0.05 (bad at θ=0.01) and
	// 0.05/10 = 0.005 (acceptable).
	predicted := Encode([]Particle{
		{Mass: 1, Pos: Vec3{1.05, 0, 0}},
		{Mass: 1, Pos: Vec3{10.05, 0, 0}},
	})
	res := app.Check(1, predicted, actual, local, 0)
	if res.Total != 2 {
		t.Errorf("Total = %d, want 2", res.Total)
	}
	if res.Bad != 1 {
		t.Errorf("Bad = %d, want 1", res.Bad)
	}
	wantOps := float64(CheckOpsPerRemote*2 + CheckOpsPerPair*2)
	if res.Ops != wantOps {
		t.Errorf("Ops = %g, want %g", res.Ops, wantOps)
	}
	// Looser threshold accepts both.
	app.Theta = 0.1
	if r := app.Check(1, predicted, actual, local, 0); r.Bad != 0 {
		t.Errorf("θ=0.1: Bad = %d, want 0", r.Bad)
	}
}

func TestRepairOps(t *testing.T) {
	app := NewApp(DefaultSim(), nil, 10, 0, 0.01, nil)
	if got := app.RepairOps(core.CheckResult{Bad: 5}); got != 2*PairOps*5 {
		t.Errorf("RepairOps = %g", got)
	}
}

func TestSplitParticles(t *testing.T) {
	ps := UniformSphere(10, 1)
	blocks := SplitParticles(ps, []int{3, 0, 7})
	if len(blocks[0]) != 3 || len(blocks[1]) != 0 || len(blocks[2]) != 7 {
		t.Fatalf("block sizes %d %d %d", len(blocks[0]), len(blocks[1]), len(blocks[2]))
	}
	if blocks[2][0] != ps[3] {
		t.Error("blocks not consecutive")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for bad sizes")
		}
	}()
	SplitParticles(ps, []int{5, 4})
}

func TestMaxPairwiseRelErr(t *testing.T) {
	a := []Particle{{Pos: Vec3{1, 0, 0}}, {Pos: Vec3{0, 2, 0}}}
	b := []Particle{{Pos: Vec3{1, 0, 0}}, {Pos: Vec3{0, 1, 0}}}
	got := MaxPairwiseRelErr(a, b)
	if math.Abs(got-1.0) > 1e-12 { // |2-1|/1
		t.Errorf("MaxPairwiseRelErr = %g, want 1", got)
	}
	if MaxPairwiseRelErr(a, a) != 0 {
		t.Error("identical sets should have zero error")
	}
	for i := range a {
		c := append([]Particle(nil), a...)
		c[i].Pos.Y = math.NaN()
		if got := MaxPairwiseRelErr(c, b); !math.IsInf(got, 1) {
			t.Errorf("NaN position in particle %d: MaxPairwiseRelErr = %g, want +Inf", i, got)
		}
	}
}
