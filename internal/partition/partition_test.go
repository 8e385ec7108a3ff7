package partition

import (
	"math/rand"
	"testing"
	"testing/quick"

	"specomp/internal/cluster"
)

func TestProportionalEqualCaps(t *testing.T) {
	counts := Proportional(12, []float64{1, 1, 1, 1})
	for i, c := range counts {
		if c != 3 {
			t.Errorf("counts[%d] = %d, want 3", i, c)
		}
	}
}

func TestProportionalWeighted(t *testing.T) {
	// 10:1 capacity ratio over 2 procs, 11 variables: exact split 10/1.
	counts := Proportional(11, []float64{10, 1})
	if counts[0] != 10 || counts[1] != 1 {
		t.Errorf("counts = %v, want [10 1]", counts)
	}
}

func TestProportionalRounding(t *testing.T) {
	counts := Proportional(10, []float64{1, 1, 1})
	sum := 0
	for _, c := range counts {
		sum += c
	}
	if sum != 10 {
		t.Errorf("sum = %d, want 10", sum)
	}
	// Largest remainder with equal fractions favors the lower index.
	if counts[0] != 4 || counts[1] != 3 || counts[2] != 3 {
		t.Errorf("counts = %v, want [4 3 3]", counts)
	}
}

func TestProportionalZeroN(t *testing.T) {
	counts := Proportional(0, []float64{5, 3})
	if counts[0] != 0 || counts[1] != 0 {
		t.Errorf("counts = %v, want zeros", counts)
	}
}

func TestProportionalSumsToNProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(n16 uint16, p8 uint8) bool {
		n := int(n16 % 5000)
		p := int(p8%32) + 1
		caps := make([]float64, p)
		for i := range caps {
			caps[i] = 0.1 + rng.Float64()*10
		}
		counts := Proportional(n, caps)
		sum := 0
		for _, c := range counts {
			if c < 0 {
				return false
			}
			sum += c
		}
		return sum == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestProportionalWithinOneOfQuotaProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(n16 uint16, p8 uint8) bool {
		n := int(n16%5000) + 1
		p := int(p8%16) + 1
		caps := make([]float64, p)
		var total float64
		for i := range caps {
			caps[i] = 0.5 + rng.Float64()*5
			total += caps[i]
		}
		counts := Proportional(n, caps)
		for i, c := range counts {
			quota := float64(n) * caps[i] / total
			if float64(c) < quota-1.0000001 || float64(c) > quota+1.0000001 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestBlocksTable pins Blocks against the spellings it replaced: for every
// n in 0..64 and p in 1..8, with equal and linearly declining capacities, the
// ranges tile [0, n) in rank order and equal the counts → ranges loop over
// Proportional; for equal capacities they also equal the even split that
// gives the first n mod p processors one extra variable.
func TestBlocksTable(t *testing.T) {
	for p := 1; p <= 8; p++ {
		capSets := map[string][]float64{
			"equal":  Equal(p),
			"linear": cluster.Capacities(cluster.LinearMachines(p, 1.364e6, 10)),
		}
		for name, caps := range capSets {
			for n := 0; n <= 64; n++ {
				got := Blocks(n, caps)
				if len(got) != p {
					t.Fatalf("%s n=%d p=%d: %d blocks", name, n, p, len(got))
				}
				lo := 0
				for _, b := range got {
					if b[0] != lo || b[1] < b[0] {
						t.Fatalf("%s n=%d p=%d: blocks %v do not tile in rank order", name, n, p, got)
					}
					lo = b[1]
				}
				if lo != n {
					t.Fatalf("%s n=%d p=%d: blocks %v do not cover [0, %d)", name, n, p, got, n)
				}
				lo = 0
				for i, c := range Proportional(n, caps) {
					if want := [2]int{lo, lo + c}; got[i] != want {
						t.Fatalf("%s n=%d p=%d: block %d = %v, want %v (counts → ranges)", name, n, p, i, got[i], want)
					}
					lo += c
				}
				if name != "equal" {
					continue
				}
				base, rem := n/p, n%p
				lo = 0
				for i := range got {
					hi := lo + base
					if i < rem {
						hi++
					}
					if got[i] != [2]int{lo, hi} {
						t.Fatalf("n=%d p=%d: block %d = %v, want even split [%d, %d)", n, p, i, got[i], lo, hi)
					}
					lo = hi
				}
			}
		}
	}
}

// TestBlocksAndOwner checks that counts {3, 0, 2} (from the capacities
// below) become consecutive ranges in which every index has exactly one
// owner, and that the empty range owns nothing.
func TestBlocksAndOwner(t *testing.T) {
	rs := Blocks(5, []float64{3, 0.01, 2})
	want := [][2]int{{0, 3}, {3, 3}, {3, 5}}
	for i := range want {
		if rs[i] != want[i] {
			t.Errorf("rs[%d] = %v, want %v", i, rs[i], want[i])
		}
	}
	wantOwner := []int{0, 0, 0, 2, 2}
	for idx := -1; idx <= 5; idx++ {
		owners := []int{}
		for k, r := range rs {
			if r[0] <= idx && idx < r[1] {
				owners = append(owners, k)
			}
		}
		switch {
		case idx < 0 || idx >= 5:
			if len(owners) != 0 {
				t.Errorf("out-of-range index %d owned by %v", idx, owners)
			}
		case len(owners) != 1 || owners[0] != wantOwner[idx]:
			t.Errorf("index %d owned by %v, want [%d]", idx, owners, wantOwner[idx])
		}
	}
	if rs[1][1]-rs[1][0] != 0 {
		t.Error("empty range misbehaves")
	}
}

func TestImbalancePerfect(t *testing.T) {
	// counts exactly proportional: imbalance 0.
	if got := Imbalance([]int{10, 5}, []float64{2, 1}); got > 1e-12 {
		t.Errorf("Imbalance = %g, want 0", got)
	}
}

func TestImbalanceDetectsSkew(t *testing.T) {
	// All work on the slow processor.
	got := Imbalance([]int{0, 15}, []float64{2, 1})
	if got < 1 {
		t.Errorf("Imbalance = %g, want > 1", got)
	}
}

func TestImbalanceBoundedForProportionalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(p8 uint8) bool {
		p := int(p8%16) + 1
		n := 1000
		caps := make([]float64, p)
		for i := range caps {
			caps[i] = 1 + rng.Float64()*9
		}
		counts := Proportional(n, caps)
		// With N=1000 variables, rounding error per proc is < 1 variable,
		// so relative imbalance should be small.
		return Imbalance(counts, caps) < 0.2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
