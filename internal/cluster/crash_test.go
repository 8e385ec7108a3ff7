package cluster

import (
	"math"
	"math/rand"
	"testing"

	"specomp/internal/faults"
	"specomp/internal/netmodel"
	"specomp/internal/obs"
)

func TestCrashRestartLifecycle(t *testing.T) {
	// Proc 1 crashes mid-run while parked on a receive: its body must unwind,
	// stay dead for the downtime (dropping deliveries), then restart with a
	// bumped epoch and keep receiving.
	jr := obs.NewJournal()
	reg := obs.NewRegistry()
	c := New(Config{
		Machines: []Machine{{Name: "a", Ops: 100}, {Name: "b", Ops: 100}},
		Net:      netmodel.Fixed{D: 0.01},
		Journal:  jr,
		Metrics:  reg,
		Crashes:  faults.CrashSchedule{{Proc: 1, At: 0.55, Downtime: 0.3}},
	})
	var incarnations int
	var epochs []int
	var got int
	c.Start(func(p *Proc) {
		if p.ID() == 0 {
			for i := 0; i < 20; i++ {
				p.Idle(0.1)
				p.Send(1, 1, i, []float64{float64(i)})
			}
			return
		}
		incarnations++
		epochs = append(epochs, p.Epoch())
		for {
			if _, ok := p.RecvDeadline(Any, Any, 1.0); !ok {
				return
			}
			got++
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if incarnations != 2 {
		t.Fatalf("incarnations = %d, want 2", incarnations)
	}
	if len(epochs) != 2 || epochs[0] != 0 || epochs[1] != 1 {
		t.Errorf("epochs = %v, want [0 1]", epochs)
	}
	ns := c.Proc(1).NetStats()
	if ns.Crashes != 1 {
		t.Errorf("Crashes = %d, want 1", ns.Crashes)
	}
	if math.Abs(ns.DowntimeSec-0.3) > 1e-9 {
		t.Errorf("DowntimeSec = %g, want 0.3", ns.DowntimeSec)
	}
	if ns.DeadDrops == 0 {
		t.Error("no deliveries dropped while dead, expected some")
	}
	if got == 0 || got >= 20 {
		t.Errorf("received %d ticks, want some lost to the crash window", got)
	}
	if jr.Count(obs.EvCrash) != 1 || jr.Count(obs.EvRestart) != 1 {
		t.Errorf("journal crash/restart = %d/%d, want 1/1",
			jr.Count(obs.EvCrash), jr.Count(obs.EvRestart))
	}
	for _, e := range jr.Events() {
		if e.Kind == obs.EvRestart && (e.Proc != 1 || e.Iter != 1) {
			t.Errorf("restart event mislabeled: %+v", e)
		}
		if e.Kind == obs.EvCrash && math.Abs(e.V-0.3) > 1e-9 {
			t.Errorf("crash event downtime = %g, want 0.3", e.V)
		}
	}
	totals := reg.Totals()
	if int(totals[MetricCrashes]) != 1 {
		t.Errorf("crash counter = %v, want 1", totals[MetricCrashes])
	}
	if p1 := c.Proc(1); p1.PhaseTime(PhaseOther) < 0.3 {
		t.Errorf("downtime not charged to PhaseOther: %g", p1.PhaseTime(PhaseOther))
	}
	if c.Proc(0).PeerDown(1) {
		t.Error("PeerDown(1) true after restart")
	}
}

func TestReliablePeerDeadDropsRetransmission(t *testing.T) {
	// The reliable layer must stop retransmitting to a dead peer — the rejoin
	// protocol owns recovery — and must not count the abandonment as a giveup.
	jr := obs.NewJournal()
	c := New(Config{
		Machines:     []Machine{{Name: "a", Ops: 100}, {Name: "b", Ops: 100}},
		Net:          netmodel.Fixed{D: 0.01},
		Reliable:     true,
		RetryTimeout: 0.2,
		Journal:      jr,
		Crashes:      faults.CrashSchedule{{Proc: 1, At: 0.1, Downtime: 2.0}},
	})
	var gotAfterRestart bool
	c.Start(func(p *Proc) {
		if p.ID() == 0 {
			p.Idle(0.5)
			p.Send(1, 1, 9, []float64{1})
			p.Idle(3) // stay alive past the retry timer and p1's restart
			return
		}
		if p.Epoch() == 0 {
			p.Recv(Any, Any) // parked here when the crash lands
			t.Error("first incarnation received a message unexpectedly")
			return
		}
		_, gotAfterRestart = p.RecvDeadline(Any, Any, 1.0)
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	ns0 := c.Proc(0).NetStats()
	if ns0.PeerDeadDrops != 1 {
		t.Errorf("PeerDeadDrops = %d, want 1", ns0.PeerDeadDrops)
	}
	if ns0.GiveUps != 0 {
		t.Errorf("GiveUps = %d, want 0 (dead-peer drop is not a giveup)", ns0.GiveUps)
	}
	if c.Proc(1).NetStats().DeadDrops != 1 {
		t.Errorf("DeadDrops = %d, want 1", c.Proc(1).NetStats().DeadDrops)
	}
	if jr.Count(obs.EvPeerDead) != 1 {
		t.Errorf("peer_dead journal events = %d, want 1", jr.Count(obs.EvPeerDead))
	}
	if gotAfterRestart {
		t.Error("abandoned message leaked into the restarted incarnation")
	}
}

// slowThenFast delivers sends issued before the cutover slowly and later
// sends quickly, so an old message can arrive after a newer one.
type slowThenFast struct{ cut float64 }

func (m slowThenFast) Delay(msg netmodel.Msg, rng *rand.Rand) float64 {
	if msg.Now < m.cut {
		return 1.5
	}
	return 0.01
}

func TestStaleEpochMessageDiscarded(t *testing.T) {
	// A pre-crash message still in flight when its sender restarts must be
	// discarded on arrival: the receiver has already seen the newer epoch.
	c := New(Config{
		Machines: []Machine{{Name: "a", Ops: 100}, {Name: "b", Ops: 100}},
		Net:      slowThenFast{cut: 0.15},
		Crashes:  faults.CrashSchedule{{Proc: 1, At: 0.1, Downtime: 0.2}},
	})
	var firstIter int
	var sawSecond bool
	c.Start(func(p *Proc) {
		if p.ID() == 0 {
			m, ok := p.RecvDeadline(Any, Any, 3.0)
			if ok {
				firstIter = m.Iter
			}
			_, sawSecond = p.RecvDeadline(Any, Any, 2.0)
			return
		}
		if p.Epoch() == 0 {
			p.Send(0, 1, 100, []float64{1}) // slow: lands ~t=1.5, epoch 0
			p.Idle(0.2)
			p.Idle(0.2) // crash pending from t=0.1 lands here
			return
		}
		p.Send(0, 1, 200, []float64{2}) // fast: lands first, epoch 1
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if firstIter != 200 {
		t.Errorf("first delivery Iter = %d, want 200 (new epoch)", firstIter)
	}
	if sawSecond {
		t.Error("stale epoch-0 message delivered")
	}
	if st := c.Proc(0).NetStats().StaleDrops; st != 1 {
		t.Errorf("StaleDrops = %d, want 1", st)
	}
}
