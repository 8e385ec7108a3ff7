package faults_test

import (
	"bytes"
	"reflect"
	"testing"

	"specomp/internal/cluster"
	"specomp/internal/faults"
	"specomp/internal/netmodel"
	"specomp/internal/obs"
)

func TestChaosDeterministicPerSeed(t *testing.T) {
	a := faults.Chaos(42, 4, 6, 1, 10, 0.5, 1.5)
	b := faults.Chaos(42, 4, 6, 1, 10, 0.5, 1.5)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different schedules:\n%v\n%v", a, b)
	}
	if len(a) != 6 {
		t.Fatalf("len = %d, want 6", len(a))
	}
	other := faults.Chaos(43, 4, 6, 1, 10, 0.5, 1.5)
	if reflect.DeepEqual(a, other) {
		t.Error("different seeds produced identical schedules")
	}
	if a.Crashes(-1) != 6 {
		t.Errorf("Crashes(-1) = %d, want 6", a.Crashes(-1))
	}
	var sum float64
	for p := 0; p < 4; p++ {
		sum += a.TotalDowntime(p)
	}
	if got := a.TotalDowntime(-1); got != sum {
		t.Errorf("TotalDowntime(-1) = %g, want %g", got, sum)
	}
}

func TestChaosEventsWellFormedAndSpaced(t *testing.T) {
	s := faults.Chaos(7, 3, 20, 2, 12, 0.3, 0.9)
	// last[p] is when proc p's previous downtime ends; Chaos emits events in
	// At order per processor, so a linear scan checks the spacing invariant.
	last := make([]float64, 3)
	for _, ev := range s {
		if ev.Proc < 0 || ev.Proc >= 3 {
			t.Fatalf("proc out of range: %+v", ev)
		}
		if ev.At < 2 {
			t.Errorf("crash before window start: %+v", ev)
		}
		if ev.Downtime < 0.3 || ev.Downtime > 0.9 {
			t.Errorf("downtime out of range: %+v", ev)
		}
		if ev.At < last[ev.Proc] {
			t.Errorf("crash lands inside previous downtime: %+v", ev)
		}
		last[ev.Proc] = ev.At + ev.Downtime
	}
}

// chaosJournal runs one crash-bearing reliable simulation over the given
// (possibly stateful, shared) network model and returns the journal bytes.
func chaosJournal(t *testing.T, net netmodel.Model) string {
	t.Helper()
	jr := obs.NewJournal()
	c := cluster.New(cluster.Config{
		Machines:     []cluster.Machine{{Name: "a", Ops: 100}, {Name: "b", Ops: 100}},
		Net:          net,
		Reliable:     true,
		RetryTimeout: 0.2,
		Journal:      jr,
		Crashes:      faults.CrashSchedule{{Proc: 1, At: 0.35, Downtime: 0.4}},
	})
	c.Start(func(p *cluster.Proc) {
		if p.ID() == 0 {
			for i := 0; i < 12; i++ {
				p.Idle(0.1)
				p.Send(1, 1, i, []float64{float64(i)})
			}
			return
		}
		for {
			if _, ok := p.RecvDeadline(cluster.Any, cluster.Any, 1.5); !ok {
				return
			}
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := jr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if jr.Count(obs.EvCrash) != 1 || jr.Count(obs.EvRestart) != 1 {
		t.Fatalf("crash/restart = %d/%d, want 1/1",
			jr.Count(obs.EvCrash), jr.Count(obs.EvRestart))
	}
	return buf.String()
}

func TestClusterReuseAfterCrashRun(t *testing.T) {
	// Reusing a stateful network model across sequential crash-bearing runs
	// must not carry over bus occupancy, retransmission state, or dead-peer
	// marks: the second run's journal must be byte-identical to the first.
	bus := &netmodel.SharedBus{Overhead: 0.005, BytesPerSec: 1e6}
	net := faults.Straggler{Inner: bus, Proc: -1, Factor: 1} // stateless wrapper over shared state
	first := chaosJournal(t, net)
	second := chaosJournal(t, net)
	if first != second {
		t.Error("second run diverged: stale state survived cluster reuse")
	}
}
