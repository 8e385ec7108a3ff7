package distnet

import (
	"errors"
	"testing"
	"time"
)

// TestLocalFleetStopMidRun pins the teardown half of the fleet rule: Stop on
// a fleet in flight ends the run as a deliberate close within the
// acked-shutdown bound, leaves no child behind — every supervisor's Wait
// has returned, every child process is reaped — and may be repeated.
func TestLocalFleetStopMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process run is not -short")
	}
	spec := crashSpec(3)
	spec.MaxIter = 20_000 // far more work than fits between custody coverage and the Stop
	fleet := startHelperFleet(t, CoordConfig{Spec: spec, Timeout: 2 * time.Minute})
	if !fleet.Coordinator().CustodyCovered(60 * time.Second) {
		t.Fatal("the run never reached custody coverage: nothing to stop mid-run")
	}

	start := time.Now()
	fleet.Stop()
	reports, err, childErr := fleet.Wait()
	if took := time.Since(start); took > shutdownAckTimeout+3*time.Second {
		t.Errorf("Stop + Wait took %v", took)
	}
	if !errors.Is(err, ErrCoordClosed) || reports != nil {
		t.Errorf("stopped fleet: %d reports, err %v; want none and ErrCoordClosed", len(reports), err)
	}
	if childErr != nil {
		t.Errorf("a deliberate stop latched a child failure: %v", childErr)
	}
	for slot, s := range fleet.sups {
		select {
		case <-s.done:
		default:
			t.Errorf("slot %d: supervisor still running after Wait", slot)
		}
		if s.cmd.ProcessState == nil {
			t.Errorf("slot %d: child %d was never reaped", slot, s.cmd.Process.Pid)
		}
	}
	if fleet.Respawns() != 0 {
		t.Errorf("%d respawns after a deliberate stop", fleet.Respawns())
	}

	fleet.Stop()
	if _, err2, _ := fleet.Wait(); !errors.Is(err2, ErrCoordClosed) {
		t.Errorf("second Stop + Wait: %v", err2)
	}
}
