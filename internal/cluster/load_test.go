package cluster

import (
	"math/rand"
	"testing"

	"specomp/internal/netmodel"
)

func TestNoLoadIsIdentity(t *testing.T) {
	if (NoLoad{}).Factor(0, 10, nil) != 1 {
		t.Error("NoLoad factor != 1")
	}
}

func TestBurstyLoadStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	b := BurstyLoad{Prob: 0.3, Slowdown: 4}
	slow, total := 0, 5000
	for i := 0; i < total; i++ {
		f := b.Factor(0, 0, rng)
		switch f {
		case 1:
		case 4:
			slow++
		default:
			t.Fatalf("unexpected factor %v", f)
		}
	}
	frac := float64(slow) / float64(total)
	if frac < 0.25 || frac > 0.35 {
		t.Errorf("slow fraction %.3f, want ~0.3", frac)
	}
	// Degenerate slowdown below 1 clamps to 1.
	b2 := BurstyLoad{Prob: 1, Slowdown: 0.5}
	if b2.Factor(0, 0, rng) != 1 {
		t.Error("slowdown < 1 not clamped")
	}
}

func TestPeriodicLoadBoundsAndPhases(t *testing.T) {
	p := PeriodicLoad{Amplitude: 0.6, Period: 10}
	for now := 0.0; now < 30; now += 0.37 {
		f := p.Factor(1, now, nil)
		if f < 1 || f > 1.6+1e-12 {
			t.Fatalf("factor %v outside [1, 1.6]", f)
		}
	}
	// Different processors are phase-shifted.
	if p.Factor(0, 5, nil) == p.Factor(1, 5, nil) {
		t.Error("processors slowed in lockstep")
	}
	if (PeriodicLoad{}).Factor(0, 3, nil) != 1 {
		t.Error("zero-amplitude periodic load should be identity")
	}
}

func TestLoadSlowsComputation(t *testing.T) {
	run := func(load LoadModel) float64 {
		c := New(Config{
			Machines: UniformMachines(1, 100),
			Net:      netmodel.Fixed{D: 0},
			Load:     load,
		})
		var end float64
		c.Start(func(p *Proc) {
			p.Compute(1000, PhaseCompute) // 10 s unloaded
			end = p.Now()
		})
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return end
	}
	unloaded := run(nil)
	loaded := run(BurstyLoad{Prob: 1, Slowdown: 3})
	if unloaded != 10 {
		t.Errorf("unloaded compute took %v, want 10", unloaded)
	}
	if loaded != 30 {
		t.Errorf("fully loaded compute took %v, want 30", loaded)
	}
}

func TestPerPairTopology(t *testing.T) {
	extra := netmodel.TwoSwitch(4, 2, 0.5)
	m := netmodel.PerPair{Inner: netmodel.Fixed{D: 0.1}, Extra: extra}
	cases := []struct {
		src, dst int
		want     float64
	}{
		{0, 1, 0.1}, // same switch
		{2, 3, 0.1}, // same switch
		{0, 2, 0.6}, // cross
		{3, 1, 0.6}, // cross
	}
	for _, c := range cases {
		if got := m.Delay(netmodel.Msg{Src: c.src, Dst: c.dst}, nil); got != c.want {
			t.Errorf("%d->%d: %v, want %v", c.src, c.dst, got, c.want)
		}
	}
	// Out-of-range indices are tolerated.
	if got := m.Delay(netmodel.Msg{Src: 9, Dst: 0}, nil); got != 0.1 {
		t.Errorf("out-of-range src: %v", got)
	}
}

func TestCrossSwitchClusterRuns(t *testing.T) {
	c := New(Config{
		Machines: UniformMachines(4, 1000),
		Net: netmodel.PerPair{
			Inner: netmodel.Fixed{D: 0.05},
			Extra: netmodel.TwoSwitch(4, 2, 1.0),
		},
	})
	arrive := make([]float64, 4)
	c.Start(func(p *Proc) {
		if p.ID() == 0 {
			for k := 1; k < 4; k++ {
				p.Send(k, 1, 0, nil)
			}
		} else {
			p.Recv(Any, Any)
			arrive[p.ID()] = p.Now()
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if arrive[1] != 0.05 {
		t.Errorf("same-switch delivery at %v", arrive[1])
	}
	if arrive[2] != 1.05 || arrive[3] != 1.05 {
		t.Errorf("cross-switch deliveries at %v, %v, want 1.05", arrive[2], arrive[3])
	}
}
