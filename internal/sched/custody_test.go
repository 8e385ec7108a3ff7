package sched_test

// Custody promises at the scheduler's level, real OS processes: what is on
// disk at the instant an eviction is acknowledged and at the instant Drain
// returns, and what the service says when custody writes fail. Unlike the
// e2e tests these never wait for the directory to fill before acting — the
// scheduler's own barrier has to be what makes the snapshots durable.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"specomp/internal/checkpoint"
	"specomp/internal/distnet"
	"specomp/internal/sched"
)

// logSink collects scheduler log lines for assertions.
type logSink struct {
	t  *testing.T
	mu sync.Mutex
	ls []string
}

func (l *logSink) logf(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	l.mu.Lock()
	l.ls = append(l.ls, line)
	l.mu.Unlock()
	l.t.Log(line)
}

func (l *logSink) contains(sub string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range l.ls {
		if strings.Contains(line, sub) {
			return true
		}
	}
	return false
}

// onDisk counts the ranks of job whose snapshot a fresh FileStore — one that
// shares no memory with the scheduler — can load from dir.
func onDisk(t *testing.T, dir, job string, procs int) int {
	t.Helper()
	root, err := checkpoint.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := root.Namespace(job)
	if err != nil {
		t.Fatal(err)
	}
	have := 0
	for r := 0; r < procs; r++ {
		if _, ok := ns.Load(r); ok {
			have++
		}
	}
	return have
}

var longHeat = distnet.RunSpec{
	App: "heat", Procs: 4, MaxIter: 900, FW: 2, Theta: 1e-3, Rows: 48, Cols: 32, CheckpointEvery: 5,
}

// TestEvictIsDurableWhenAcknowledged: the moment a job reads as preempted,
// every rank's snapshot is already on disk, and the resume restores all of
// them instead of restarting from scratch.
func TestEvictIsDurableWhenAcknowledged(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process scheduler run is not -short")
	}
	dir := t.TempDir()
	custody, err := checkpoint.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sink := &logSink{t: t}
	s, err := sched.New(sched.Config{
		TotalRanks: 4, Launch: testLauncher, Custody: custody,
		RunTimeout: 3 * time.Minute, EvictGrace: 20 * time.Second, Logf: sink.logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	batch, err := s.Submit(sched.JobSpec{Name: "batch", Priority: 1, Spec: longHeat})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, batch.ID, 30*time.Second, sched.StateRunning)
	urgent := longHeat
	urgent.Procs, urgent.MaxIter = 2, 400
	if _, err := s.Submit(sched.JobSpec{Name: "urgent", Priority: 9, Spec: urgent}); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, batch.ID, time.Minute, sched.StatePreempted)
	if have := onDisk(t, dir, batch.ID, longHeat.Procs); have != longHeat.Procs {
		t.Fatalf("eviction acknowledged with %d/%d ranks on disk", have, longHeat.Procs)
	}

	final := waitState(t, s, batch.ID, 3*time.Minute, sched.StateDone, sched.StateFailed)
	if final.State != sched.StateDone || final.Restores != longHeat.Procs {
		t.Errorf("resumed job: state %s, %d custody restores, want done with %d", final.State, final.Restores, longHeat.Procs)
	}
	if sink.contains("restart from scratch") {
		t.Error("the evicted job restarted from scratch")
	}
	if final.CustodyError != "" {
		t.Errorf("healthy custody reported an error: %s", final.CustodyError)
	}

	// The launch of every finished job is attributed by phase.
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, sched.MetricLaunchSeconds+"_sum") || strings.HasPrefix(line, sched.MetricLaunchSeconds+"_count") {
			t.Log(line) // where this run's launches went, for the reader of -v
		}
	}
	for _, phase := range []string{"spawn", "hello", "mesh", "barrier"} {
		if !strings.Contains(string(body), sched.MetricLaunchSeconds+`_count{phase="`+phase+`"}`) {
			t.Errorf("/metrics has no launch histogram for phase %q", phase)
		}
	}
	for _, name := range []string{sched.MetricCustodyLag, sched.MetricCustodyErrors + " 0"} {
		if !strings.Contains(string(body), name) {
			t.Errorf("/metrics missing %q", name)
		}
	}
}

// TestDrainIsDurableWhenItReturns: Drain called the moment a job is running
// waits for custody itself, and everything is on disk when it returns.
func TestDrainIsDurableWhenItReturns(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process scheduler run is not -short")
	}
	dir := t.TempDir()
	custody, err := checkpoint.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sink := &logSink{t: t}
	s, err := sched.New(sched.Config{
		TotalRanks: 4, Launch: testLauncher, Custody: custody, StateDir: t.TempDir(),
		RunTimeout: 3 * time.Minute, EvictGrace: 20 * time.Second, Logf: sink.logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st, err := s.Submit(sched.JobSpec{Name: "survivor", Spec: longHeat})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, 30*time.Second, sched.StateRunning)
	if err := s.Drain(time.Minute); err != nil {
		t.Fatal(err)
	}
	if have := onDisk(t, dir, st.ID, longHeat.Procs); have != longHeat.Procs {
		t.Errorf("Drain returned with %d/%d ranks on disk", have, longHeat.Procs)
	}
	if sink.contains("restart from scratch") {
		t.Error("the drained job lost its custody")
	}
}

// TestCustodyWriteFailureIsSurfaced: a job whose custody writes fail says
// so — in its status, in the log and in a counter — instead of silently
// running without a net.
func TestCustodyWriteFailureIsSurfaced(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process scheduler run is not -short")
	}
	dir := t.TempDir()
	custody, err := checkpoint.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sink := &logSink{t: t}
	s, err := sched.New(sched.Config{
		TotalRanks: 2, Launch: testLauncher, Custody: custody, RunTimeout: 3 * time.Minute, Logf: sink.logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	spec := longHeat
	spec.Procs, spec.MaxIter = 2, 200
	st, err := s.Submit(sched.JobSpec{Name: "doomed-custody", Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	// Dispatch created the job's namespace inside Submit; take it away so
	// every write of the run fails.
	if err := os.RemoveAll(filepath.Join(dir, st.ID)); err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s, st.ID, time.Minute, sched.StateDone, sched.StateFailed)
	if final.State != sched.StateDone {
		t.Fatalf("job: %+v", final)
	}
	if final.CustodyError == "" {
		t.Error("status carries no custody_error though every custody write failed")
	}
	if !sink.contains("custody writes failed") {
		t.Error("no log line names the custody failure")
	}
	if got := s.Registry().Totals()[sched.MetricCustodyErrors]; got != 1 {
		t.Errorf("%s = %v, want 1", sched.MetricCustodyErrors, got)
	}
}
