package distnet

// End-to-end crash tolerance: real OS processes, real SIGKILLs, real
// sockets. These are the process-level proof of the PR 3 recovery
// protocol — a supervised node dies mid-run, respawns with a bumped
// epoch, reclaims its rank from the coordinator, restores from custody,
// and the fleet still converges on the fault-free answer.

import (
	"errors"
	"net"
	"testing"
	"time"

	"specomp/internal/apps/heat"
	"specomp/internal/checkpoint"
)

// crashSpec is the shared shape of the crash runs: long enough that a kill
// lands mid-run, checkpointing often enough that custody is fresh, and a
// wall-clock deadline so survivors bridge the outage on speculation
// instead of blocking.
func crashSpec(procs int) RunSpec {
	return RunSpec{
		App: "heat", Procs: procs, MaxIter: 1500, FW: 2, Theta: 1e-3,
		Rows: 48, Cols: 32,
		CheckpointEvery: 5, Deadline: 0.25, MaxCrashOverrun: 8,
	}
}

// waitFullCustody blocks until the durable store holds a checkpoint for
// every rank — the signal that a kill from here on has state to recover.
func waitFullCustody(t *testing.T, fs *checkpoint.FileStore, procs int) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		have := 0
		for r := 0; r < procs; r++ {
			if _, ok := fs.Load(r); ok {
				have++
			}
		}
		if have == procs {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("custody never covered all ranks (%d/%d)", have, procs)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCrashRespawnRejoinMultiProcess is the acceptance-criterion run:
// SIGKILL a node mid-run, let the supervisor respawn it with epoch+1,
// watch it reclaim its rank and restore from durable custody, and require
// the final field to match the fault-free serial reference within the
// speculation tolerance.
func TestCrashRespawnRejoinMultiProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process crash run is not -short")
	}
	fs, err := checkpoint.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := crashSpec(4)
	fleet := startHelperFleet(t, CoordConfig{
		Spec: spec, Timeout: 3 * time.Minute, Custody: fs,
		NodeTimeout: 2 * time.Second, RejoinWait: 30 * time.Second,
	})
	coord := fleet.Coordinator()
	spec = coord.Spec()

	// Let the run establish custody, then murder rank victim's process.
	waitFullCustody(t, fs, spec.Procs)
	const victim = 2
	fleet.Kill(victim)
	t.Logf("SIGKILLed the supervised node of slot %d", victim)

	reports, err, childErr := fleet.Wait()
	if err != nil {
		t.Fatalf("run did not survive the crash: %v", err)
	}
	if childErr != nil {
		t.Errorf("supervisor latched %v", childErr)
	}
	if len(reports) != spec.Procs {
		t.Fatalf("got %d reports, want %d", len(reports), spec.Procs)
	}

	// The supervisor actually respawned, and exactly one rank's result came
	// from a revived (epoch > 0, checkpoint-restored) incarnation.
	if fleet.Respawns() < 1 {
		t.Error("kill triggered no respawn")
	}
	revived := 0
	for _, rep := range reports {
		if rep.Epoch > 0 {
			revived++
			if rep.Restores < 1 {
				t.Errorf("rank %d rejoined (epoch %d) without restoring from custody", rep.Rank, rep.Epoch)
			}
		}
	}
	if revived != 1 {
		t.Errorf("%d ranks report a respawned incarnation, want exactly 1", revived)
	}
	st := coord.Stats()
	if st.Vacated < 1 || st.Rejoins < 1 {
		t.Errorf("coordinator stats %+v, want >=1 vacated and >=1 rejoin", st)
	}
	if st.CustodySaves < spec.Procs {
		t.Errorf("only %d custody saves recorded", st.CustodySaves)
	}

	// The paper's bottom line: the crashed-and-recovered run still lands on
	// the fault-free answer within the speculation tolerance.
	serial := heat.DefaultGrid(spec.Rows, spec.Cols).SerialRun(spec.MaxIter)
	field, err := AssembleHeat(spec, reports)
	if err != nil {
		t.Fatal(err)
	}
	if d := heat.MaxDiff(field, serial); d > 0.5 {
		t.Errorf("post-crash field deviates %g from the fault-free reference", d)
	}
}

// TestCoordinatorRestartResumesCustody kills the custody holder itself: a
// coordinator with -custody-dir dies mid-run, and its replacement on the
// same directory must resume custody — handing restored checkpoints to a
// fresh fleet which then converges on the fault-free answer.
func TestCoordinatorRestartResumesCustody(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process custody run is not -short")
	}
	dir := t.TempDir()
	fs1, err := checkpoint.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := crashSpec(3)
	fleetA := startHelperFleet(t, CoordConfig{Spec: spec, Timeout: 2 * time.Minute, Custody: fs1})
	spec = fleetA.Coordinator().Spec()

	// Wait for durable custody of every rank, then crash the coordinator
	// while its nodes are alive; Wait stops and reaps the orphans after.
	waitFullCustody(t, fs1, spec.Procs)
	fleetA.Coordinator().Close()
	t.Log("killed the first coordinator with custody on disk")
	if _, err, _ := fleetA.Wait(); !errors.Is(err, ErrCoordClosed) {
		t.Fatalf("fleet of a closed coordinator reported %v, want ErrCoordClosed", err)
	}

	// The replacement coordinator resumes custody from the directory.
	fs2, err := checkpoint.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	fleetB := startHelperFleet(t, CoordConfig{Spec: spec, Timeout: 2 * time.Minute, Custody: fs2})
	if got := fleetB.Coordinator().Stats().CustodyRestores; got != spec.Procs {
		t.Fatalf("restarted coordinator restored %d/%d ranks from custody", got, spec.Procs)
	}
	reports, err, childErr := fleetB.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if childErr != nil {
		t.Errorf("supervisor latched %v", childErr)
	}

	// Every node of the resumed run restored mid-run state instead of
	// recomputing from iteration zero, and the answer still matches.
	for _, rep := range reports {
		if rep.Restores < 1 {
			t.Errorf("rank %d did not restore from resumed custody", rep.Rank)
		}
	}
	serial := heat.DefaultGrid(spec.Rows, spec.Cols).SerialRun(spec.MaxIter)
	field, err := AssembleHeat(spec, reports)
	if err != nil {
		t.Fatal(err)
	}
	if d := heat.MaxDiff(field, serial); d > 0.5 {
		t.Errorf("resumed-custody field deviates %g from the fault-free reference", d)
	}
}

// TestSilentNodeVacatedAndRankLost pins the control-plane liveness rule: a
// member whose coordinator connection goes silent mid-run is vacated after
// NodeTimeout with ErrNodeSilent, and a vacancy nobody reclaims fails the
// run with ErrRankLost long before the global run timeout.
func TestSilentNodeVacatedAndRankLost(t *testing.T) {
	spec := RunSpec{App: "heat", Procs: 2, MaxIter: 10, FW: 1, Theta: 1e-3, Rows: 8, Cols: 8}
	coord, err := NewCoordinator(CoordConfig{
		Spec: spec, Timeout: 30 * time.Second,
		NodeTimeout: 250 * time.Millisecond, RejoinWait: 500 * time.Millisecond,
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	join := func() net.Conn {
		conn, err := net.Dial("tcp", coord.Addr())
		if err != nil {
			t.Fatal(err)
		}
		hello := Frame{Type: FrameHello, Rank: -1, Addr: "127.0.0.1:1"}
		if _, err := writeFrame(conn, nil, &hello); err != nil {
			t.Fatal(err)
		}
		return conn
	}
	live := join()
	defer live.Close()
	silent := join()
	defer silent.Close()
	if _, err := readHandshake(live, FrameConfig, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := readHandshake(silent, FrameConfig, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	// The live member keeps its control link warm; the silent one says
	// nothing more — an OS process frozen mid-run with the socket open.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				hb := Frame{Type: FrameHeartbeat}
				if _, err := writeFrame(live, nil, &hb); err != nil {
					return
				}
			case <-stop:
				return
			}
		}
	}()

	start := time.Now()
	_, err = coord.Wait()
	if err == nil {
		t.Fatal("run with a silent member reported success")
	}
	if !errors.Is(err, ErrRankLost) {
		t.Errorf("error does not name the rank loss: %v", err)
	}
	if !errors.Is(err, ErrNodeSilent) {
		t.Errorf("error does not name control-plane silence as the cause: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("silence detection took %v — the global timeout did the work", elapsed)
	}
	if st := coord.Stats(); st.Vacated < 1 {
		t.Errorf("no vacancy recorded: %+v", st)
	}
}
