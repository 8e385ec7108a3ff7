package core

// The engine's half of the transport's flush rule (core.Transport: "a
// transport may defer a Send until the caller next polls empty, blocks in a
// receive, or returns — never past that"). A batching transport relies on
// the engine never computing on top of a deferred send, with no timer behind
// it: between any Send and the next App.Compute, or Run
// returning, the engine must have made an empty TryRecv or entered
// Recv/RecvDeadline. Pinned here, where an engine change would break it.

import (
	"testing"

	"specomp/internal/checkpoint"
	"specomp/internal/cluster"
	"specomp/internal/faults"
)

// sendRecorder wraps the simulated processor and counts the sends a
// deferring transport could still be holding.
type sendRecorder struct {
	*cluster.Proc
	t     *testing.T
	owed  int // sends since the engine last polled empty or entered a receive
	sends int
}

// The wrapper hides none of the capabilities the engine probes for.
var _ interface {
	Transport
	DeadlineReceiver
	FailureDetector
	Epocher
	NetStatser
} = (*sendRecorder)(nil)

func (r *sendRecorder) Send(dst, tag, iter int, data []float64) {
	r.owed++
	r.sends++
	r.Proc.Send(dst, tag, iter, data)
}

func (r *sendRecorder) TryRecv(src, tag int) (cluster.Message, bool) {
	m, ok := r.Proc.TryRecv(src, tag)
	if !ok {
		r.owed = 0
	}
	return m, ok
}

func (r *sendRecorder) Recv(src, tag int) cluster.Message {
	r.owed = 0
	return r.Proc.Recv(src, tag)
}

func (r *sendRecorder) RecvDeadline(src, tag int, timeout float64) (cluster.Message, bool) {
	r.owed = 0
	return r.Proc.RecvDeadline(src, tag, timeout)
}

// settled fails the test if a send could still be deferred at this point.
func (r *sendRecorder) settled(where string) {
	if r.owed != 0 {
		r.t.Errorf("proc %d: %d sends not followed by an empty poll or a blocking receive before %s",
			r.ID(), r.owed, where)
		r.owed = 0
	}
}

// recordedApp checks the rule at every Compute; recordedStopper keeps the
// wrapped app's Stopper visible to the engine.
type recordedApp struct {
	App
	rec *sendRecorder
}

func (a recordedApp) Compute(view [][]float64, t int) []float64 {
	a.rec.settled("Compute")
	return a.App.Compute(view, t)
}

type recordedStopper struct {
	recordedApp
	Stopper
}

// runRecorded is RunCluster with both recorders in place. A crashed
// processor's body is re-entered per incarnation, so each incarnation gets a
// fresh recorder: what a dead process still owed is lost with it.
func runRecorded(t *testing.T, cc cluster.Config, cfg Config, factory Factory) (sends int, results []Result) {
	t.Helper()
	c := cluster.New(cc)
	results = make([]Result, c.P())
	perProc := make([]int, c.P())
	c.Start(func(p *cluster.Proc) {
		rec := &sendRecorder{Proc: p, t: t}
		inner := factory(p)
		var app App = recordedApp{inner, rec}
		if st, ok := inner.(Stopper); ok {
			app = recordedStopper{recordedApp{inner, rec}, st}
		}
		res, err := Run(rec, app, cfg)
		if err != nil {
			t.Errorf("proc %d: %v", p.ID(), err)
		}
		rec.settled("Run returned")
		results[p.ID()] = res
		perProc[p.ID()] += rec.sends
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	for _, n := range perProc {
		sends += n
	}
	return sends, results
}

func TestNoComputeOnTopOfADeferredSend(t *testing.T) {
	coupled := func(p *cluster.Proc) App {
		return &coupledMap{p: p, r: 3.2, eps: 0.3, threshold: 0.02, computeOp: 500, repairOp: 250}
	}
	stopper := func(p *cluster.Proc) App { return &stopApp{pid: p.ID(), p: p.P(), stopIter: 7} }

	for _, fw := range []int{0, 1, 2} {
		if n, _ := runRecorded(t, uniformCluster(3, 0.05), Config{FW: fw, MaxIter: 30}, coupled); n == 0 {
			t.Errorf("FW=%d: recorder saw no sends", fw)
		}
		n, results := runRecorded(t, uniformCluster(3, 0.05), Config{FW: fw, MaxIter: 100}, stopper)
		if n == 0 || !results[0].Converged {
			t.Errorf("FW=%d stopper: %d sends, converged=%v", fw, n, results[0].Converged)
		}
	}
	if n, _ := runRecorded(t, uniformCluster(3, 1.0), Config{FW: 2, MaxIter: 20, HoldSends: true}, coupled); n == 0 {
		t.Error("HoldSends: recorder saw no sends")
	}

	// Crash/rejoin, with and without deadline bridging: rejoin requests,
	// refill bursts and acks are sends too, issued from inside receive loops.
	for _, deadline := range []float64{0.3, 0} {
		cfg := recoveryConfig(checkpoint.NewMemStore())
		cfg.Deadline = deadline
		_, base := runRecorded(t, reliableCluster(4), cfg, coupled)
		T := TotalTime(base)

		cc := reliableCluster(4)
		cc.Crashes = faults.CrashSchedule{
			{Proc: 1, At: 0.25 * T, Downtime: 0.06 * T},
			{Proc: 3, At: 0.55 * T, Downtime: 0.06 * T},
		}
		cfg = recoveryConfig(checkpoint.NewMemStore())
		cfg.Deadline = deadline
		_, results := runRecorded(t, cc, cfg, coupled)
		if agg := Aggregate(results); agg.Restores != 2 {
			t.Errorf("deadline %g: Restores = %d, want 2 (the crash schedule did not bite)", deadline, agg.Restores)
		}
	}
}
