package cluster

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"specomp/internal/netmodel"
	"specomp/internal/obs"
	"specomp/internal/simtime"
)

func twoProcCluster(net netmodel.Model) *Cluster {
	return New(Config{
		Machines: []Machine{{Name: "fast", Ops: 100}, {Name: "slow", Ops: 10}},
		Net:      net,
	})
}

func TestComputeChargesTimeByCapacity(t *testing.T) {
	c := twoProcCluster(netmodel.Fixed{D: 0})
	var fastEnd, slowEnd float64
	c.Start(func(p *Proc) {
		p.Compute(1000, PhaseCompute)
		if p.ID() == 0 {
			fastEnd = p.Now()
		} else {
			slowEnd = p.Now()
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if fastEnd != 10 {
		t.Errorf("fast proc finished at %g, want 10", fastEnd)
	}
	if slowEnd != 100 {
		t.Errorf("slow proc finished at %g, want 100", slowEnd)
	}
	if got := c.Proc(0).PhaseTime(PhaseCompute); got != 10 {
		t.Errorf("fast compute clock = %g, want 10", got)
	}
}

func TestSendRecvLatency(t *testing.T) {
	c := twoProcCluster(netmodel.Fixed{D: 2.5})
	var recvAt float64
	var got Message
	c.Start(func(p *Proc) {
		if p.ID() == 0 {
			p.Send(1, 7, 3, []float64{1, 2, 3})
		} else {
			got = p.Recv(Any, Any)
			recvAt = p.Now()
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if recvAt != 2.5 {
		t.Errorf("received at %g, want 2.5", recvAt)
	}
	if got.Tag != 7 || got.Iter != 3 || len(got.Data) != 3 || got.Data[2] != 3 {
		t.Errorf("message = %+v", got)
	}
	if got.SentAt != 0 || got.DeliveredAt != 2.5 {
		t.Errorf("timestamps = %g, %g", got.SentAt, got.DeliveredAt)
	}
	// Blocked time shows up on the comm clock.
	if commClock := c.Proc(1).PhaseTime(PhaseComm); commClock != 2.5 {
		t.Errorf("receiver comm clock = %g, want 2.5", commClock)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	c := twoProcCluster(netmodel.Fixed{D: 1})
	var got Message
	c.Start(func(p *Proc) {
		if p.ID() == 0 {
			data := []float64{42}
			p.Send(1, 0, 0, data)
			data[0] = -1 // mutation after send must not affect the message
		} else {
			got = p.Recv(Any, Any)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got.Data[0] != 42 {
		t.Errorf("payload mutated in flight: %v", got.Data)
	}
}

func TestTryRecvNonBlocking(t *testing.T) {
	c := twoProcCluster(netmodel.Fixed{D: 5})
	var early, late bool
	c.Start(func(p *Proc) {
		if p.ID() == 0 {
			p.Send(1, 1, 0, nil)
		} else {
			_, early = p.TryRecv(Any, Any) // message still in flight
			p.Idle(10)
			_, late = p.TryRecv(Any, Any) // delivered by now
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if early {
		t.Error("TryRecv returned a message before delivery")
	}
	if !late {
		t.Error("TryRecv missed a delivered message")
	}
}

func TestRecvAnyMatchesWildcard(t *testing.T) {
	c := twoProcCluster(netmodel.Fixed{D: 1})
	var got Message
	c.Start(func(p *Proc) {
		if p.ID() == 0 {
			p.Send(1, 33, 0, nil)
		} else {
			got = p.Recv(Any, Any)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got.Tag != 33 {
		t.Errorf("wildcard recv got tag %d", got.Tag)
	}
}

// TestSelectorRefused: the simulator receives only (Any, Any), as both
// wall-clock transports do; a selector is a bug the run reports.
func TestSelectorRefused(t *testing.T) {
	for name, recv := range map[string]func(*Proc){
		"TryRecv(0, Any)":         func(p *Proc) { p.TryRecv(0, Any) },
		"Recv(Any, 1)":            func(p *Proc) { p.Recv(Any, 1) },
		"RecvDeadline(0, 1, 0.1)": func(p *Proc) { p.RecvDeadline(0, 1, 0.1) },
	} {
		c := twoProcCluster(netmodel.Fixed{D: 1})
		c.Start(func(p *Proc) {
			if p.ID() == 1 {
				recv(p)
			}
		})
		if err := c.Run(); err == nil || !strings.Contains(err.Error(), "(Any, Any)") {
			t.Errorf("%s: err = %v, want the (Any, Any) rule", name, err)
		}
	}
}

func TestDeadlockWhenNoSender(t *testing.T) {
	c := twoProcCluster(netmodel.Fixed{D: 1})
	c.Start(func(p *Proc) {
		if p.ID() == 1 {
			p.Recv(Any, Any) // never sent
		}
	})
	err := c.Run()
	if !errors.Is(err, simtime.ErrDeadlock) {
		t.Fatalf("err = %v, want deadlock", err)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	c := New(Config{
		Machines: []Machine{{Name: "a", Ops: 100}, {Name: "b", Ops: 100}, {Name: "c", Ops: 100}},
		Net:      netmodel.Fixed{D: 0.5},
	})
	after := make([]float64, 3)
	c.Start(func(p *Proc) {
		p.Idle(float64(p.ID())) // stagger arrivals: 0s, 1s, 2s
		// A naive all-to-all barrier: one message to and from every peer.
		for k := 0; k < p.P(); k++ {
			if k != p.ID() {
				p.Send(k, 99, 0, nil)
			}
		}
		for k := 0; k < p.P(); k++ {
			if k != p.ID() {
				p.Recv(Any, Any)
			}
		}
		after[p.ID()] = p.Now()
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	// Nobody can leave the barrier before the last arrival at t=2, and the
	// earlier arrivers must additionally wait for the last proc's message
	// (sent at t=2, 0.5s latency).
	for i, ts := range after {
		if ts < 2 {
			t.Errorf("proc %d left barrier at %g, want >= 2", i, ts)
		}
		if i != 2 && ts < 2.5 {
			t.Errorf("early-arriving proc %d left barrier at %g, want >= 2.5", i, ts)
		}
	}
}

func TestStatsCounters(t *testing.T) {
	c := twoProcCluster(netmodel.Fixed{D: 1})
	c.Start(func(p *Proc) {
		if p.ID() == 0 {
			p.Send(1, 0, 0, []float64{1, 2})
			p.Send(1, 0, 1, []float64{3})
		} else {
			p.Recv(Any, Any)
			p.Recv(Any, Any)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	sent, _, bytes := c.Proc(0).Stats()
	_, recvd, _ := c.Proc(1).Stats()
	if sent != 2 || recvd != 2 {
		t.Errorf("sent=%d recvd=%d, want 2 2", sent, recvd)
	}
	wantBytes := (8*2 + 64) + (8*1 + 64)
	if bytes != wantBytes {
		t.Errorf("bytes=%d, want %d", bytes, wantBytes)
	}
}

func TestLinearMachines(t *testing.T) {
	ms := LinearMachines(16, 1000, 10)
	if len(ms) != 16 {
		t.Fatalf("len = %d", len(ms))
	}
	if ms[0].Ops != 1000 {
		t.Errorf("fastest = %g, want 1000", ms[0].Ops)
	}
	if math.Abs(ms[15].Ops-100) > 1e-9 {
		t.Errorf("slowest = %g, want 100", ms[15].Ops)
	}
	for i := 1; i < 16; i++ {
		if ms[i].Ops >= ms[i-1].Ops {
			t.Errorf("capacities not strictly decreasing at %d", i)
		}
	}
	// Single machine: fastest capacity.
	one := LinearMachines(1, 500, 10)
	if one[0].Ops != 500 {
		t.Errorf("p=1 capacity = %g, want 500", one[0].Ops)
	}
}

func TestTotalOps(t *testing.T) {
	ms := UniformMachines(4, 25)
	if got := TotalOps(ms); got != 100 {
		t.Errorf("TotalOps = %g, want 100", got)
	}
}

// Property: for any machine count and staggered send times, every message is
// delivered exactly once and receive order from a single sender over a FIFO
// (fixed-delay) link preserves send order.
func TestFIFOOrderProperty(t *testing.T) {
	f := func(nMsgs8 uint8) bool {
		n := int(nMsgs8%20) + 1
		c := twoProcCluster(netmodel.Fixed{D: 0.7})
		var got []int
		c.Start(func(p *Proc) {
			if p.ID() == 0 {
				for i := 0; i < n; i++ {
					p.Send(1, 5, i, []float64{float64(i)})
					p.Idle(0.01)
				}
			} else {
				for i := 0; i < n; i++ {
					m := p.Recv(Any, Any)
					got = append(got, m.Iter)
				}
			}
		})
		if err := c.Run(); err != nil {
			return false
		}
		if len(got) != n {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// dropFirstN is a deterministic FaultyModel that loses the first N
// transmissions it sees, then delivers everything.
type dropFirstN struct {
	inner netmodel.Model
	n     int
	seen  int
}

func (m *dropFirstN) Delay(msg netmodel.Msg, rng *rand.Rand) float64 {
	return m.inner.Delay(msg, rng)
}

func (m *dropFirstN) Deliveries(msg netmodel.Msg, rng *rand.Rand) []float64 {
	m.seen++
	if m.seen <= m.n {
		return nil
	}
	return []float64{m.inner.Delay(msg, rng)}
}

func TestSharedBusResetOnReuse(t *testing.T) {
	// Regression: reusing one SharedBus value across sequential simulations
	// must not carry busyUntil over — the second run's virtual clock
	// restarts at 0, so stale state would inflate every delay.
	bus := &netmodel.SharedBus{Overhead: 1}
	run := func() float64 {
		c := New(Config{
			Machines: []Machine{{Name: "a", Ops: 100}, {Name: "b", Ops: 100}},
			Net:      bus,
		})
		var recvAt float64
		c.Start(func(p *Proc) {
			if p.ID() == 0 {
				p.Send(1, 1, 0, []float64{1})
				p.Send(1, 2, 0, []float64{2})
			} else {
				p.Recv(Any, Any)
				p.Recv(Any, Any)
				recvAt = p.Now()
			}
		})
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return recvAt
	}
	first := run()
	second := run()
	if first != second {
		t.Errorf("reused SharedBus inflated delays: first run recv at %g, second at %g", first, second)
	}
}

func TestReliableDeliveryRecoversDrops(t *testing.T) {
	// The first two transmissions vanish; the reliable layer must retransmit
	// until the message lands, and count the retries.
	c := New(Config{
		Machines:     []Machine{{Name: "a", Ops: 100}, {Name: "b", Ops: 100}},
		Net:          &dropFirstN{inner: netmodel.Fixed{D: 0.1}, n: 2},
		Reliable:     true,
		RetryTimeout: 0.5,
	})
	var got Message
	c.Start(func(p *Proc) {
		if p.ID() == 0 {
			p.Send(1, 7, 3, []float64{42})
		} else {
			got = p.Recv(Any, Any)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got.Data) != 1 || got.Data[0] != 42 {
		t.Fatalf("message not recovered: %+v", got)
	}
	ns := c.Proc(0).NetStats()
	if ns.Retries != 2 {
		t.Errorf("Retries = %d, want 2", ns.Retries)
	}
	if ns.MsgsSent != 1 {
		t.Errorf("MsgsSent = %d, want 1 (logical sends)", ns.MsgsSent)
	}
}

func TestWithoutReliableDropDeadlocks(t *testing.T) {
	c := New(Config{
		Machines: []Machine{{Name: "a", Ops: 100}, {Name: "b", Ops: 100}},
		Net:      &dropFirstN{inner: netmodel.Fixed{D: 0.1}, n: 1},
	})
	c.Start(func(p *Proc) {
		if p.ID() == 0 {
			p.Send(1, 7, 0, nil)
		} else {
			p.Recv(Any, Any)
		}
	})
	if err := c.Run(); !errors.Is(err, simtime.ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

// duplicateAll delivers every transmission twice.
type duplicateAll struct{ inner netmodel.Model }

func (m duplicateAll) Delay(msg netmodel.Msg, rng *rand.Rand) float64 {
	return m.inner.Delay(msg, rng)
}

func (m duplicateAll) Deliveries(msg netmodel.Msg, rng *rand.Rand) []float64 {
	d := m.inner.Delay(msg, rng)
	return []float64{d, d + 0.05}
}

// TestReliableDeliverySuppressesDuplicates: no duplicate reaches the
// mailbox, and each suppressed one is one dup event in the run journal, on
// the receiver, naming the message's iteration and its sender.
func TestReliableDeliverySuppressesDuplicates(t *testing.T) {
	jr := obs.NewJournal()
	c := New(Config{
		Machines: []Machine{{Name: "a", Ops: 100}, {Name: "b", Ops: 100}},
		Net:      duplicateAll{inner: netmodel.Fixed{D: 0.1}},
		Reliable: true,
		Journal:  jr,
	})
	var recvd int
	c.Start(func(p *Proc) {
		if p.ID() == 0 {
			p.Send(1, 7, 0, []float64{1})
			p.Send(1, 7, 1, []float64{2})
		} else {
			p.Recv(Any, Any)
			p.Recv(Any, Any)
			p.Idle(1) // let the duplicate copies arrive
			for {
				if _, ok := p.TryRecv(Any, Any); !ok {
					break
				}
				recvd++
			}
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if recvd != 0 {
		t.Errorf("%d duplicate messages leaked into the mailbox", recvd)
	}
	if dups := c.Proc(1).NetStats().DupsDropped; dups == 0 {
		t.Error("no duplicates suppressed, expected some")
	}
	var iters []int
	for _, e := range jr.Events() {
		if e.Kind != obs.EvDup {
			continue
		}
		if e.Proc != 1 || e.Peer != 0 {
			t.Errorf("dup event mislabeled: %+v", e)
		}
		iters = append(iters, e.Iter)
	}
	if len(iters) != 2 || iters[0] != 0 || iters[1] != 1 {
		t.Errorf("dup events for iterations %v, want [0 1]", iters)
	}
}

// TestJournalRecordsGiveUp: a message whose MaxRetries retransmissions all
// vanish is abandoned, and the abandonment is one giveup event in the run
// journal, on the sender, naming the message's iteration and its receiver.
func TestJournalRecordsGiveUp(t *testing.T) {
	jr := obs.NewJournal()
	c := New(Config{
		Machines:     []Machine{{Name: "a", Ops: 100}, {Name: "b", Ops: 100}},
		Net:          &dropFirstN{inner: netmodel.Fixed{D: 0.1}, n: math.MaxInt},
		Reliable:     true,
		RetryTimeout: 0.2,
		MaxRetries:   2,
		Journal:      jr,
	})
	c.Start(func(p *Proc) {
		if p.ID() == 0 {
			p.Send(1, 7, 3, []float64{42})
		}
		p.Idle(10) // outlive every retry timer
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	var giveups []obs.Event
	for _, e := range jr.Events() {
		if e.Kind == obs.EvGiveup {
			giveups = append(giveups, e)
		}
	}
	if len(giveups) != 1 {
		t.Fatalf("journal giveup events = %d, want 1", len(giveups))
	}
	if e := giveups[0]; e.Proc != 0 || e.Iter != 3 || e.Peer != 1 {
		t.Errorf("giveup event mislabeled: %+v", e)
	}
	ns := c.Proc(0).NetStats()
	if ns.GiveUps != 1 || ns.Retries != 2 {
		t.Errorf("GiveUps = %d, Retries = %d, want 1 and 2", ns.GiveUps, ns.Retries)
	}
	if got := jr.Count(obs.EvRetrans); got != 2 {
		t.Errorf("journal retrans events = %d, want 2", got)
	}
}

func TestRecvDeadlineTimesOutAndRecovers(t *testing.T) {
	c := New(Config{
		Machines: []Machine{{Name: "a", Ops: 100}, {Name: "b", Ops: 100}},
		Net:      netmodel.Fixed{D: 2},
	})
	var timedOut bool
	var gotLate bool
	var wakeAt float64
	c.Start(func(p *Proc) {
		if p.ID() == 0 {
			p.Send(1, 7, 0, []float64{1})
		} else {
			_, ok := p.RecvDeadline(Any, Any, 0.5)
			timedOut = !ok
			wakeAt = p.Now()
			_, ok = p.RecvDeadline(Any, Any, 5)
			gotLate = ok
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !timedOut {
		t.Error("RecvDeadline did not time out before delivery")
	}
	if wakeAt != 0.5 {
		t.Errorf("timed out at %g, want 0.5", wakeAt)
	}
	if !gotLate {
		t.Error("second RecvDeadline missed the late message")
	}
}

func TestTransportMetricsAndJournal(t *testing.T) {
	reg := obs.NewRegistry()
	jr := obs.NewJournal()
	c := New(Config{
		Machines:     []Machine{{Name: "a", Ops: 100}, {Name: "b", Ops: 100}},
		Net:          &dropFirstN{inner: netmodel.Fixed{D: 0.1}, n: 2},
		Reliable:     true,
		RetryTimeout: 0.5,
		Metrics:      reg,
		Journal:      jr,
	})
	c.Start(func(p *Proc) {
		if p.ID() == 0 {
			p.Send(1, 7, 3, []float64{42})
		} else {
			p.Recv(Any, Any)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	totals := reg.Totals()
	if got := int(totals[MetricRetransmits]); got != c.Proc(0).NetStats().Retries {
		t.Errorf("retransmit counter = %d, want %d", got, c.Proc(0).NetStats().Retries)
	}
	if got := int(totals[MetricMsgsSent]); got != 1 {
		t.Errorf("msgs_sent counter = %d, want 1", got)
	}
	// The data message was delivered once (retransmissions that vanished do
	// not reach deliver); its latency was observed.
	if got := int(totals[MetricMsgLatency+"_count"]); got != 1 {
		t.Errorf("latency histogram count = %d, want 1", got)
	}
	if got := jr.Count(obs.EvRetrans); got != 2 {
		t.Errorf("journal retrans events = %d, want 2", got)
	}
	for _, e := range jr.Events() {
		if e.Kind == obs.EvRetrans && (e.Proc != 0 || e.Iter != 3 || e.Peer != 1) {
			t.Errorf("retrans event mislabeled: %+v", e)
		}
	}
}

func TestNilObsConfigCostsNothing(t *testing.T) {
	// No registry, no journal: the same run must behave identically (this is
	// the default path every seed test exercises; here we just pin that the
	// handles stay nil).
	c := New(Config{
		Machines: []Machine{{Name: "a", Ops: 100}, {Name: "b", Ops: 100}},
		Net:      netmodel.Fixed{D: 0.1},
	})
	c.Start(func(p *Proc) {
		if p.ID() == 0 {
			p.Send(1, 1, 0, []float64{1})
		} else {
			p.Recv(Any, Any)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Proc(0).obsMsgsSent != nil || c.Proc(1).obsLatency != nil {
		t.Error("obs handles allocated without a registry")
	}
}
