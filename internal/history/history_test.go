package history

import (
	"testing"
	"testing/quick"
)

func TestPushAtBasic(t *testing.T) {
	r := NewRing[int](3)
	if r.Len() != 0 || r.Cap() != 3 {
		t.Fatalf("fresh ring Len=%d Cap=%d", r.Len(), r.Cap())
	}
	r.Push(1)
	r.Push(2)
	if r.At(0) != 2 || r.At(1) != 1 {
		t.Errorf("At = %d,%d want 2,1", r.At(0), r.At(1))
	}
}

func TestEvictionKeepsNewest(t *testing.T) {
	r := NewRing[int](3)
	for i := 1; i <= 5; i++ {
		r.Push(i)
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	want := []int{5, 4, 3}
	for back, w := range want {
		if got := r.At(back); got != w {
			t.Errorf("At(%d) = %d, want %d", back, got, w)
		}
	}
}

func TestNewestFirst(t *testing.T) {
	r := NewRing[string](2)
	r.Push("a")
	r.Push("b")
	r.Push("c")
	got := r.NewestFirst()
	if len(got) != 2 || got[0] != "c" || got[1] != "b" {
		t.Errorf("NewestFirst = %v, want [c b]", got)
	}
}

func TestReset(t *testing.T) {
	r := NewRing[int](2)
	r.Push(1)
	r.Reset()
	if r.Len() != 0 {
		t.Errorf("Len after Reset = %d", r.Len())
	}
	r.Push(9)
	if r.At(0) != 9 {
		t.Errorf("push after reset: At(0)=%d", r.At(0))
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	r := NewRing[int](2)
	r.Push(1)
	r.At(1)
}

// Property: after pushing k values into a ring of capacity c, the ring holds
// min(k, c) values and At(i) returns the (i+1)-th most recent push.
func TestRingMatchesSliceModelProperty(t *testing.T) {
	f := func(capacity8, pushes8 uint8) bool {
		capacity := int(capacity8%10) + 1
		pushes := int(pushes8 % 50)
		r := NewRing[int](capacity)
		var model []int // newest first
		for v := 0; v < pushes; v++ {
			r.Push(v)
			model = append([]int{v}, model...)
			if len(model) > capacity {
				model = model[:capacity]
			}
		}
		if r.Len() != len(model) {
			return false
		}
		for i, w := range model {
			if r.At(i) != w {
				return false
			}
		}
		nf := r.NewestFirst()
		for i, w := range model {
			if nf[i] != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPushAliasesCallerSlice(t *testing.T) {
	// Documents the plain ring's sharp edge: Push stores slice-bearing values
	// as-is, so a caller mutating its buffer afterwards rewrites history.
	r := NewRing[[]float64](2)
	buf := []float64{1, 2}
	r.Push(buf)
	buf[0] = 99
	if got := r.At(0)[0]; got != 99 {
		t.Fatalf("plain ring unexpectedly copied: got %g", got)
	}
}
