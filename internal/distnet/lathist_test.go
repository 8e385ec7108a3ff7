package distnet

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestLatHistQuantiles: on seeded latency streams of three shapes, the
// histogram's p50 and p99 are within 1 % of the exact quantile of the sorted
// samples at the same rank.
func TestLatHistQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, c := range []struct {
		name string
		draw func() float64
	}{
		{"uniform 0-10ms", func() float64 { return 10e-3 * rng.Float64() }},
		{"bimodal 0.2ms/5ms", func() float64 {
			if rng.Intn(10) < 7 {
				return 0.2e-3 * (1 + 0.1*rng.NormFloat64())
			}
			return 5e-3 * (1 + 0.1*rng.NormFloat64())
		}},
		{"2ms jittered", func() float64 { return 2e-3 + 0.6e-3*(rng.Float64()-0.5) }},
	} {
		h := new(latHist)
		xs := make([]float64, 30000)
		for i := range xs {
			xs[i] = c.draw()
			h.add(xs[i])
		}
		sort.Float64s(xs)
		for _, q := range []float64{0.5, 0.99} {
			want := xs[int(q*float64(len(xs)-1))]
			if got := h.quantile(q); math.Abs(got-want) > 0.01*want {
				t.Errorf("%s: p%g = %.6g, exact %.6g (%.2f %% off)", c.name, 100*q, got, want, 100*math.Abs(got/want-1))
			}
		}
	}
}

// TestLatHistEdges: an empty histogram and samples below its range read 0,
// samples above it read the top bucket, and add allocates nothing.
func TestLatHistEdges(t *testing.T) {
	h := new(latHist)
	if got := h.quantile(0.5); got != 0 {
		t.Errorf("empty histogram reads p50 = %g, want 0", got)
	}
	h.add(0)
	h.add(-1e-3) // clock skew between processes, clamped upstream
	h.add(1e-12)
	if got := h.quantile(0.99); got != 0 {
		t.Errorf("samples below the range read p99 = %g, want 0", got)
	}
	h = new(latHist)
	h.add(1e6)
	if got := h.quantile(0.5); got < 255 || got > 256 {
		t.Errorf("a sample above the range reads %g, want the top bucket just under 2^%d s", got, latMaxExp)
	}
	if raceEnabled {
		return
	}
	if n := testing.AllocsPerRun(1000, func() { h.add(2e-3) }); n != 0 {
		t.Errorf("add allocates %v times per sample", n)
	}
}
