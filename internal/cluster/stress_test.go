package cluster

import (
	"testing"
	"testing/quick"

	"specomp/internal/netmodel"
)

// TestMessageStormExactlyOnceProperty floods a random cluster with tagged
// messages under a jittery network and verifies every message is delivered
// exactly once with its payload intact.
func TestMessageStormExactlyOnceProperty(t *testing.T) {
	f := func(p8, msgs8 uint8, seed int64) bool {
		p := int(p8%5) + 2
		perPair := int(msgs8%6) + 1
		c := New(Config{
			Machines: UniformMachines(p, 1000),
			Net:      netmodel.Jitter{Inner: netmodel.Fixed{D: 0.2}, Frac: 0.8},
			Seed:     seed,
		})
		got := make([]map[[3]int]bool, p) // receiver -> set of (src, tag, iter)
		for i := range got {
			got[i] = make(map[[3]int]bool)
		}
		ok := true
		c.Start(func(pr *Proc) {
			// Send perPair messages to every other processor.
			for k := 0; k < p; k++ {
				if k == pr.ID() {
					continue
				}
				for m := 0; m < perPair; m++ {
					pr.Send(k, 7, m, []float64{float64(pr.ID()*1000 + m)})
				}
			}
			// Receive everything addressed to us.
			for i := 0; i < (p-1)*perPair; i++ {
				msg := pr.Recv(Any, Any)
				key := [3]int{msg.Src, msg.Tag, msg.Iter}
				if got[pr.ID()][key] {
					ok = false // duplicate
				}
				got[pr.ID()][key] = true
				if msg.Data[0] != float64(msg.Src*1000+msg.Iter) {
					ok = false // corrupted payload
				}
			}
		})
		if err := c.Run(); err != nil {
			return false
		}
		if !ok {
			return false
		}
		for i := range got {
			if len(got[i]) != (p-1)*perPair {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestManyProcessesManyMessages is a larger smoke test: 12 processors,
// shared bus, multiple rounds of all-to-all exchange.
func TestManyProcessesManyMessages(t *testing.T) {
	const p, rounds = 12, 5
	c := New(Config{
		Machines: LinearMachines(p, 1e5, 8),
		Net:      &netmodel.SharedBus{Overhead: 0.001, BytesPerSec: 1e6},
		Seed:     3,
	})
	recvd := make([]int, p)
	c.Start(func(pr *Proc) {
		for r := 0; r < rounds; r++ {
			for k := 0; k < p; k++ {
				if k != pr.ID() {
					pr.Send(k, r, r, []float64{1, 2, 3})
				}
			}
			for k := 0; k < p-1; k++ {
				pr.Recv(Any, Any)
				recvd[pr.ID()]++
			}
			pr.Compute(100, PhaseCompute)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	for i, n := range recvd {
		if n != rounds*(p-1) {
			t.Errorf("proc %d received %d, want %d", i, n, rounds*(p-1))
		}
	}
	if c.Now() <= 0 {
		t.Error("no virtual time elapsed")
	}
}
