package heat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// loops returns the row loops this machine can run: the portable Go loop,
// and the vector kernel where the CPU has one.
func loops() []bool {
	if hasAVX2() {
		return []bool{false, true}
	}
	return []bool{false}
}

// withVector runs f with the vector kernel on or off.
func withVector(on bool, f func()) {
	defer func(was bool) { vector = was }(vector)
	vector = on
	f()
}

// randBlocks cuts rows into p non-empty strips at random.
func randBlocks(rng *rand.Rand, rows, p int) [][2]int {
	cuts := rng.Perm(rows - 1)[:p-1]
	ends := make([]bool, rows)
	for _, c := range cuts {
		ends[c+1] = true
	}
	var blocks [][2]int
	lo := 0
	for r := 1; r <= rows; r++ {
		if r == rows || ends[r] {
			blocks = append(blocks, [2]int{lo, r})
			lo = r
		}
	}
	return blocks
}

// distributedStep advances f one step the way the engine runs the apps:
// each rank's ComputeInto sees its own strip whole and every peer's
// published edge rows, and writes a NaN-filled destination.
func distributedStep(g Grid, blocks [][2]int, f [][]float64) [][]float64 {
	apps := make([]*App, len(blocks))
	pub := make([][]float64, len(blocks))
	strips := make([][]float64, len(blocks))
	for k, b := range blocks {
		apps[k] = NewApp(g, blocks, k, 1e-3)
		for r := b[0]; r < b[1]; r++ {
			strips[k] = append(strips[k], f[r]...)
		}
		pub[k] = append([]float64{}, apps[k].Publish(strips[k])...)
	}
	out := make([][]float64, 0, g.Rows)
	for k, a := range apps {
		view := append([][]float64{}, pub...)
		view[k] = strips[k]
		dst := make([]float64, len(strips[k]))
		for i := range dst {
			dst[i] = math.NaN()
		}
		a.ComputeInto(dst, view, 0)
		for i := 0; i < len(dst); i += g.Cols {
			out = append(out, dst[i:i+g.Cols])
		}
	}
	return out
}

// sameCells reports the first cell where got and want differ: in their
// bits, or, when nanBits is false, in whether they are NaN (a NaN's payload
// depends on operand order, which addition leaves to the compiler).
func sameCells(got, want [][]float64, nanBits bool) error {
	for r := range want {
		for c := range want[r] {
			g, w := got[r][c], want[r][c]
			if !nanBits && math.IsNaN(g) && math.IsNaN(w) {
				continue
			}
			if math.Float64bits(g) != math.Float64bits(w) {
				return fmt.Errorf("cell (%d,%d) = %v (%#x), want %v (%#x)", r, c, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
	return nil
}

// TestBothLoopsMatchSerialStepBitForBit runs the distributed kernel against
// SerialStep with the vector kernel on and off, at every width from 1 to 40
// columns — each leftover count 0–3, up to nine blocks per row — over random
// strip decompositions, one-row strips among them.
func TestBothLoopsMatchSerialStepBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for cols := 1; cols <= 40; cols++ {
		for i := 0; i < 6; i++ {
			rows := 1 + rng.Intn(10)
			p := 1 + rng.Intn(rows)
			if i%3 == 0 {
				p = rows // every strip a single row, both ghosts published rows
			}
			g := Grid{Rows: rows, Cols: cols, Alpha: 0.25 * rng.Float64(), Top: 100, Bottom: -3}
			blocks := randBlocks(rng, rows, p)
			f0 := make([][]float64, rows)
			for r := range f0 {
				f0[r] = make([]float64, cols)
				for c := range f0[r] {
					f0[r][c] = 200*rng.Float64() - 100
				}
			}
			for _, on := range loops() {
				withVector(on, func() {
					f, want := f0, f0
					for step := 0; step < 3; step++ {
						f, want = distributedStep(g, blocks, f), g.SerialStep(want)
						if err := sameCells(f, want, true); err != nil {
							t.Fatalf("%dx%d P%d vector=%v step %d: %v", rows, cols, p, on, step, err)
						}
					}
				})
			}
		}
	}
}

// TestSpecialValuesBothLoops feeds rows of ±Inf, ±0, subnormals and
// overflowing magnitudes to both loops: the outputs must equal SerialStep's
// bit for bit, including the NaNs an Inf−Inf makes. NaN inputs must come out
// NaN at the same cells.
func TestSpecialValuesBothLoops(t *testing.T) {
	special := []float64{
		math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), -math.Float64frombits(0x0008000000000001),
		math.MaxFloat64, -math.MaxFloat64, 1, -2.5,
	}
	nans := []float64{math.NaN(), math.Float64frombits(0xfff8000000000001), math.Float64frombits(0x7ff0000000000f00)}
	rng := rand.New(rand.NewSource(7))
	for _, withNaN := range []bool{false, true} {
		for cols := 1; cols <= 40; cols++ {
			rows := 3 + rng.Intn(4)
			g := Grid{Rows: rows, Cols: cols, Alpha: 0.25 * rng.Float64(), Top: 1, Bottom: -1}
			f := make([][]float64, rows)
			for r := range f {
				f[r] = make([]float64, cols)
				for c := range f[r] {
					f[r][c] = special[rng.Intn(len(special))]
					if withNaN && rng.Intn(5) == 0 {
						f[r][c] = nans[rng.Intn(len(nans))]
					}
				}
			}
			want := g.SerialStep(f)
			blocks := randBlocks(rng, rows, 1+rng.Intn(rows))
			for _, on := range loops() {
				withVector(on, func() {
					if err := sameCells(distributedStep(g, blocks, f), want, !withNaN); err != nil {
						t.Errorf("%dx%d NaN inputs=%v vector=%v: %v", rows, cols, withNaN, on, err)
					}
				})
			}
		}
	}
}
