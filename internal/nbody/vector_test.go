package nbody

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"specomp/internal/core"
	"specomp/internal/cpu"
)

// loops returns the values of vector this machine can run: the Go loops,
// and the kernels where the CPU has them.
func loops() []bool {
	if cpu.HasAVX2() {
		return []bool{false, true}
	}
	return []bool{false}
}

func loopName(on bool) string {
	if on {
		return "vector"
	}
	return "go"
}

// withVector runs f with the vector kernels on or off.
func withVector(on bool, f func()) {
	defer func(was bool) { vector = was }(vector)
	vector = on
	f()
}

// sameAccel reports the first component where got and want differ: in their
// bits, or in whether they are NaN (a NaN's payload depends on operand
// order, which a commutative multiply or add leaves to the compiler).
func sameAccel(got, want []Vec3) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d accelerations, want %d", len(got), len(want))
	}
	for i := range want {
		g := [3]float64{got[i].X, got[i].Y, got[i].Z}
		w := [3]float64{want[i].X, want[i].Y, want[i].Z}
		for c := range w {
			if math.IsNaN(g[c]) && math.IsNaN(w[c]) {
				continue
			}
			if math.Float64bits(g[c]) != math.Float64bits(w[c]) {
				return fmt.Errorf("target %d component %d = %v (%#x), want %v (%#x)",
					i, c, g[c], math.Float64bits(g[c]), w[c], math.Float64bits(w[c]))
			}
		}
	}
	return nil
}

func TestVectorIsTheProbe(t *testing.T) {
	if vector != cpu.HasAVX2() {
		t.Fatalf("vector = %v at init, cpu.HasAVX2() = %v", vector, cpu.HasAVX2())
	}
}

// TestAccelSpecialValuesBothLoops feeds both loops positions with NaN, ±Inf
// and −0 coordinates, coincident particles at ε = 0 (where a skipped pair's
// update is 0·Inf = NaN) and masses of 1e-300 and 1e300: every component
// must equal the one-target reference's bits, and be NaN exactly where the
// reference's is.
func TestAccelSpecialValuesBothLoops(t *testing.T) {
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
	coord := func(rng *rand.Rand) float64 {
		if rng.Intn(40) == 0 {
			return special[rng.Intn(len(special))]
		}
		return 2*rng.Float64() - 1
	}
	masses := []float64{1e-300, 1e300, 1, 0.5}
	rng := rand.New(rand.NewSource(48))
	targets, nanOut := 0, 0
	for c := 0; c < 600; c++ {
		s := Sim{G: 1, Soft: 0.05 * float64(c%2), Dt: 1e-3}
		particles := func(n int) []Particle {
			ps := make([]Particle, n)
			for i := range ps {
				ps[i] = Particle{Mass: masses[rng.Intn(len(masses))], Pos: Vec3{coord(rng), coord(rng), coord(rng)}}
			}
			return ps
		}
		on := particles(1 + c%9)
		dup := particles(1 + rng.Intn(3))
		for i := range dup {
			dup[i].Pos = on[rng.Intn(len(on))].Pos
		}
		sources := [][]Particle{particles(rng.Intn(10)), on, dup}
		want := s.referenceAccel(nil, on, sources)
		for _, a := range want {
			targets++
			if math.IsNaN(a.X) {
				nanOut++
			}
		}
		for _, v := range loops() {
			withVector(v, func() {
				if err := sameAccel(s.accelInto(nil, on, sources), want); err != nil {
					t.Fatalf("case %d (ε = %g, %d targets) %s loop: %v", c, s.Soft, len(on), loopName(v), err)
				}
			})
		}
	}
	// Some targets must keep a finite sum, or the compare above is only
	// about NaN.
	if nanOut == 0 || nanOut > targets/2 {
		t.Fatalf("%d of %d targets NaN: the generator degenerated", nanOut, targets)
	}
}

// TestCheckVectorDecidesBlocks compares the two eq.-11 loops and the
// sqrt-per-pair reference on well-separated finite data, where the kernel
// decides whole blocks by the bracket alone, at every remote count 1–9 and
// local count 0–9.
func TestCheckVectorDecidesBlocks(t *testing.T) {
	if !cpu.HasAVX2() {
		t.Skip("no AVX2: the vector check never runs")
	}
	rng := rand.New(rand.NewSource(4))
	decided := 0
	for c := 0; c < 400; c++ {
		theta := []float64{1e-4, 1e-2, 0.3}[c%3]
		act := randParticles(rng, 1+c%9)
		loc := randParticles(rng, (c/9)%10)
		pred := append([]Particle(nil), act...)
		for i := range pred {
			pred[i].Pos = pred[i].Pos.Add(randInSphere(rng, 1e-2))
		}
		want := referenceCheck(NewApp(DefaultSim(), nil, 0, 0, theta, nil), pred, act, loc)
		for _, v := range loops() {
			withVector(v, func() {
				app := NewApp(DefaultSim(), nil, 0, 0, theta, nil)
				if got := app.Check(1, Encode(pred), Encode(act), Encode(loc), c); got != want {
					t.Fatalf("case %d (θ = %g, %d remote, %d local) %s loop: %+v, reference %+v",
						c, theta, len(act), len(loc), loopName(v), got, want)
				}
			})
		}
		for i := 0; i < len(act); i += 4 {
			n := min(4, len(act)-i)
			var res core.CheckResult
			if NewApp(DefaultSim(), nil, 0, 0, theta, nil).checkVector(&res, pred[i:i+n], act[i:i+n], loc) {
				decided++
			}
		}
	}
	if decided < 500 {
		t.Fatalf("the kernel decided only %d blocks", decided)
	}
}

// fuzzFloats reads data as little-endian float64 bit patterns, 0 past its
// end.
type fuzzFloats []byte

func (d *fuzzFloats) next() float64 {
	var b [8]byte
	n := copy(b[:], *d)
	*d = (*d)[n:]
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
}

func (d *fuzzFloats) particles(n int) []Particle {
	ps := make([]Particle, n)
	for i := range ps {
		ps[i] = Particle{Mass: d.next(), Pos: Vec3{d.next(), d.next(), d.next()}}
	}
	return ps
}

// fuzzSeed encodes float64s as FuzzAccelLoops and FuzzCheckLoops read them.
func fuzzSeed(fs ...float64) []byte {
	out := make([]byte, 0, 8*len(fs))
	for _, f := range fs {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(f))
	}
	return out
}

// FuzzAccelLoops compares the vector force loop with the Go loop on
// arbitrary float64 bit patterns: G, ε, then up to 9 targets and 9 sources
// (mass and position each), the targets also summed against themselves.
func FuzzAccelLoops(f *testing.F) {
	if !cpu.HasAVX2() {
		f.Skip("no AVX2: one loop only")
	}
	f.Add(uint8(5), uint8(7), fuzzSeed(1, 0.05, 1, 0.1, 0.2, 0.3, 2, -1, 0, 4, 1e300, 0.1, 0.2, 0.3))
	f.Add(uint8(3), uint8(2), fuzzSeed(1, 0, 1e-300, 0, 0, 0, 1, math.Copysign(0, -1), 0, 0, 1, math.Inf(1), 1, math.NaN()))
	f.Fuzz(func(t *testing.T, nOn, nSrc uint8, data []byte) {
		d := fuzzFloats(data)
		s := Sim{G: d.next(), Soft: d.next()}
		on := d.particles(int(nOn % 10))
		sources := [][]Particle{d.particles(int(nSrc % 10)), on}
		var want []Vec3
		withVector(false, func() { want = s.accelInto(nil, on, sources) })
		withVector(true, func() {
			if err := sameAccel(s.accelInto(nil, on, sources), want); err != nil {
				t.Fatalf("G = %g ε = %g: %v", s.G, s.Soft, err)
			}
		})
	})
}

// FuzzCheckLoops compares the vector eq.-11 check with the Go loop on
// arbitrary float64 bit patterns: θ, then up to 9 remote particles'
// predicted and actual positions and up to 9 local particles.
func FuzzCheckLoops(f *testing.F) {
	if !cpu.HasAVX2() {
		f.Skip("no AVX2: one loop only")
	}
	f.Add(uint8(5), uint8(7), fuzzSeed(1e-3, 1, 0.1, 0.2, 0.3, 1, 0.1, 0.2, 0.30001, 1, 2, 0, 0))
	f.Add(uint8(4), uint8(3), fuzzSeed(0.5, 1, 0, 0, 0, 1, 0, math.NaN(), 0, 1, math.Inf(1), 0, 0))
	f.Fuzz(func(t *testing.T, nAct, nLoc uint8, data []byte) {
		d := fuzzFloats(data)
		theta := d.next()
		pred := d.particles(int(nAct % 10))
		act := d.particles(len(pred))
		loc := d.particles(int(nLoc % 10))
		var want core.CheckResult
		withVector(false, func() {
			want = NewApp(DefaultSim(), nil, 0, 0, theta, nil).Check(1, Encode(pred), Encode(act), Encode(loc), 0)
		})
		withVector(true, func() {
			if got := NewApp(DefaultSim(), nil, 0, 0, theta, nil).Check(1, Encode(pred), Encode(act), Encode(loc), 0); got != want {
				t.Fatalf("θ = %g: vector %+v, Go %+v", theta, got, want)
			}
		})
	})
}
