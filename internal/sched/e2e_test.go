package sched_test

// End-to-end scheduler proof, real OS processes: a batch job's fleet is
// preempted by a high-priority arrival, evicted to its custody namespace,
// and later resumed from the snapshots — and the preempted-and-resumed
// run still converges on the same answer an uninterrupted run (and the
// serial reference) produces. This is the service-level acceptance
// criterion of the scheduler subsystem.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"

	"specomp/internal/apps/heat"
	"specomp/internal/checkpoint"
	"specomp/internal/distnet"
	"specomp/internal/sched"
)

const (
	schedHelperEnv = "SPECOMP_SCHED_NODE_HELPER"
	schedCoordEnv  = "SPECOMP_SCHED_COORD"
	schedEpochEnv  = "SPECOMP_SCHED_EPOCH"
)

// TestHelperSchedNode is not a test: it is the node process body the
// scheduler launches (this test binary re-executed), same pattern as the
// distnet crash tests.
func TestHelperSchedNode(t *testing.T) {
	if os.Getenv(schedHelperEnv) == "" {
		t.Skip("helper process body, not a test")
	}
	epoch, _ := strconv.Atoi(os.Getenv(schedEpochEnv))
	_, err := distnet.RunNode(distnet.NodeConfig{
		Coord: os.Getenv(schedCoordEnv),
		Epoch: epoch,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "sched node helper: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// testLauncher re-executes this test binary as a node process.
func testLauncher(info sched.LaunchInfo) (*exec.Cmd, error) {
	cmd := exec.Command(os.Args[0], "-test.run=^TestHelperSchedNode$", "-test.v")
	cmd.Env = append(os.Environ(),
		schedHelperEnv+"=1",
		schedCoordEnv+"="+info.Coord,
		schedEpochEnv+"="+strconv.Itoa(info.Epoch))
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	return cmd, nil
}

// waitState polls until the job reaches one of the wanted states.
func waitState(t *testing.T, s *sched.Scheduler, id string, timeout time.Duration, want ...sched.JobState) sched.JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range want {
			if st.State == w {
				return st
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, wanted one of %v", id, st.State, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestPreemptEvictResumeConvergence: on a 4-rank pool, a low-priority
// 4-rank batch job is running when a high-priority job arrives; the batch
// job is evicted to custody, the urgent job runs, the batch job resumes
// from its snapshots, and its final field matches both an uninterrupted
// run of the identical spec and the serial reference.
func TestPreemptEvictResumeConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process scheduler run is not -short")
	}
	custody, err := checkpoint.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.New(sched.Config{
		TotalRanks:  4,
		Launch:      testLauncher,
		Custody:     custody,
		RunTimeout:  3 * time.Minute,
		EvictGrace:  20 * time.Second,
		NodeTimeout: 10 * time.Second,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	batchSpec := distnet.RunSpec{
		App: "heat", Procs: 4, MaxIter: 900, FW: 2, Theta: 1e-3,
		Rows: 48, Cols: 32, CheckpointEvery: 5,
	}
	batch, err := s.Submit(sched.JobSpec{Name: "batch", Priority: 1, Spec: batchSpec})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, batch.ID, 30*time.Second, sched.StateRunning)

	// Wait until the batch job's custody namespace covers every rank, so
	// the eviction below is guaranteed a full snapshot set.
	ns, err := custody.Namespace(batch.ID)
	if err != nil {
		t.Fatal(err)
	}
	covDeadline := time.Now().Add(60 * time.Second)
	for {
		have := 0
		for r := 0; r < 4; r++ {
			if _, ok := ns.Load(r); ok {
				have++
			}
		}
		if have == 4 {
			break
		}
		if time.Now().After(covDeadline) {
			t.Fatalf("batch custody never covered all ranks (%d/4)", have)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The urgent arrival outranks the batch job and cannot fit beside it:
	// the scheduler must evict the batch fleet to custody.
	urgent, err := s.Submit(sched.JobSpec{Name: "urgent", Priority: 9, Spec: distnet.RunSpec{
		App: "heat", Procs: 2, MaxIter: 120, FW: 2, Theta: 1e-3,
		Rows: 32, Cols: 24, CheckpointEvery: 5,
	}})
	if err != nil {
		t.Fatal(err)
	}

	// The batch job must actually get evicted (not merely finish first).
	preemptDeadline := time.Now().Add(60 * time.Second)
	for {
		st, err := s.Status(batch.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.Preemptions >= 1 {
			break
		}
		if time.Now().After(preemptDeadline) {
			t.Fatalf("batch job was never preempted: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if ust := waitState(t, s, urgent.ID, 2*time.Minute, sched.StateDone); ust.State != sched.StateDone {
		t.Fatalf("urgent job: %+v", ust)
	}

	// The batch job resumes from custody and completes.
	final := waitState(t, s, batch.ID, 3*time.Minute, sched.StateDone, sched.StateFailed)
	if final.State != sched.StateDone {
		t.Fatalf("batch job after resume: %+v", final)
	}
	if final.Restores < 1 {
		t.Errorf("resumed batch job recorded no custody restores: %+v", final)
	}
	if len(final.Reports) != 4 {
		t.Fatalf("batch job has %d reports, want 4", len(final.Reports))
	}

	// An uninterrupted control run of the identical spec on the same pool.
	control, err := s.Submit(sched.JobSpec{Name: "control", Priority: 1, Spec: batchSpec})
	if err != nil {
		t.Fatal(err)
	}
	ctl := waitState(t, s, control.ID, 3*time.Minute, sched.StateDone, sched.StateFailed)
	if ctl.State != sched.StateDone || ctl.Preemptions != 0 {
		t.Fatalf("control run: %+v", ctl)
	}

	// Convergence: preempted-and-resumed == uninterrupted == serial, all
	// within the speculation tolerance the distnet suite uses.
	norm := batchSpec
	if err := norm.Normalize(); err != nil {
		t.Fatal(err)
	}
	resumedField, err := distnet.AssembleHeat(norm, final.Reports)
	if err != nil {
		t.Fatal(err)
	}
	controlField, err := distnet.AssembleHeat(norm, ctl.Reports)
	if err != nil {
		t.Fatal(err)
	}
	serial := heat.DefaultGrid(norm.Rows, norm.Cols).SerialRun(norm.MaxIter)
	const tol = 0.5
	if d := heat.MaxDiff(resumedField, serial); d > tol {
		t.Errorf("resumed run diverged from serial: max diff %g > %g", d, tol)
	}
	if d := heat.MaxDiff(controlField, serial); d > tol {
		t.Errorf("control run diverged from serial: max diff %g > %g", d, tol)
	}
	if d := heat.MaxDiff(resumedField, controlField); d > tol {
		t.Errorf("resumed and uninterrupted runs disagree: max diff %g > %g", d, tol)
	}

	// Custody hygiene: finished jobs leave no snapshots behind.
	for r := 0; r < 4; r++ {
		if _, ok := ns.Load(r); ok {
			t.Errorf("done job still has custody for rank %d", r)
		}
	}

	// Scheduler bookkeeping and the merged service exposition.
	stats := s.Stats()
	if stats.Preemptions < 1 || stats.Resumes < 1 || stats.Completed != 3 {
		t.Errorf("scheduler stats %+v, want >=1 preemption, >=1 resume, 3 completed", stats)
	}
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
	text := string(body)
	if !strings.Contains(text, "specomp_sched_preemptions_total 1") {
		t.Errorf("/metrics missing preemption count:\n%.2000s", text)
	}
	if !strings.Contains(text, `job="`+batch.ID+`"`) || !strings.Contains(text, `job="`+urgent.ID+`"`) {
		t.Errorf("/metrics not job-labelled per job")
	}

	// /fleet?job= filters to one job's fleet view.
	fresp, err := http.Get(srv.URL + "/fleet?job=" + urgent.ID)
	if err != nil {
		t.Fatal(err)
	}
	fbody, err := io.ReadAll(fresp.Body)
	fresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	ftext := string(fbody)
	if fresp.StatusCode != http.StatusOK || !strings.Contains(ftext, urgent.ID) || strings.Contains(ftext, `"id": "`+batch.ID+`"`) {
		t.Errorf("/fleet?job=%s: %d %.500s", urgent.ID, fresp.StatusCode, ftext)
	}
}

// TestDrainEvictsToCustodyAndPersistsQueue: SIGTERM semantics at the
// library level — draining evicts a running job to custody, persists it in
// the queue file, and a successor scheduler resumes it to completion.
func TestDrainEvictsToCustodyAndPersistsQueue(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process scheduler run is not -short")
	}
	dir := t.TempDir()
	stateDir := t.TempDir()
	mk := func() *sched.Scheduler {
		custody, err := checkpoint.NewFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sched.New(sched.Config{
			TotalRanks: 4, Launch: testLauncher, Custody: custody,
			StateDir: stateDir, RunTimeout: 3 * time.Minute,
			EvictGrace: 20 * time.Second, Logf: t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	// The job must still be running when Drain comes: custody covers the
	// fleet after its first CheckpointEvery iterations, and MaxIter makes
	// the whole run thousands of times longer than that.
	spec := distnet.RunSpec{App: "heat", Procs: 3, MaxIter: 20000, FW: 2, Theta: 1e-3, Rows: 48, Cols: 32, CheckpointEvery: 5}
	s := mk()
	st, err := s.Submit(sched.JobSpec{Name: "survivor", Priority: 2, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, st.ID, 30*time.Second, sched.StateRunning)
	ns, err := checkpoint.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	job, err := ns.Namespace(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		have := 0
		for r := 0; r < 3; r++ {
			if _, ok := job.Load(r); ok {
				have++
			}
		}
		if have == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("custody never covered the fleet (%d/3)", have)
		}
		time.Sleep(10 * time.Millisecond)
	}

	if err := s.Drain(time.Minute); err != nil {
		t.Fatal(err)
	}
	switch got, err := s.Status(st.ID); {
	case err != nil:
		t.Fatal(err)
	case got.State == sched.StateDone:
		t.Fatalf("job finished before Drain: the run did not outlast the custody-coverage wait, so there was nothing to evict (%+v)", got)
	case got.State != sched.StatePreempted:
		t.Fatalf("job after Drain: %s, want %s", got.State, sched.StatePreempted)
	}
	s.Close()

	// The successor inherits the queue and resumes the evicted job from
	// custody to a converged finish.
	s2 := mk()
	defer s2.Close()
	final := waitState(t, s2, st.ID, 3*time.Minute, sched.StateDone, sched.StateFailed)
	if final.State != sched.StateDone {
		t.Fatalf("job after restart: %+v", final)
	}
	if final.Preemptions < 1 || final.Restores < 1 {
		t.Errorf("restarted job shows no eviction/restore history: %+v", final)
	}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	field, err := distnet.AssembleHeat(spec, final.Reports)
	if err != nil {
		t.Fatal(err)
	}
	serial := heat.DefaultGrid(spec.Rows, spec.Cols).SerialRun(spec.MaxIter)
	if d := heat.MaxDiff(field, serial); d > 0.5 {
		t.Errorf("drained-and-resumed run diverged from serial: max diff %g", d)
	}
}
