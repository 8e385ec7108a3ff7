package distnet

// A local fleet: one coordinator plus one supervised child process per
// rank on this machine — the shape speccoord -spawn, specsoak, every
// scheduler job and the multi-process tests all run. The fleet-level rule
// (DESIGN.md §11): the run's verdict is the coordinator's, so once Wait
// has it the supervisors are stopped before they are reaped; a deliberate
// teardown stops the supervisors first (children die without respawn),
// then closes the coordinator (which makes custody durable).

import (
	"fmt"
	"os/exec"
)

// LocalFleet is a running coordinator and its supervised node processes.
type LocalFleet struct {
	coord *Coordinator
	sups  []*Supervisor
}

// StartLocal starts the coordinator for cfg and then, in slot order on the
// calling goroutine, one supervised child per rank. launch builds the
// command of one incarnation of one slot (epoch 0 first, bumped on every
// respawn); sup carries the supervision parameters, its Start is ignored
// and its Logf receives each slot's lines prefixed with "[node N]". If a
// child cannot be started the fleet is torn down and the error returned.
func StartLocal(cfg CoordConfig, sup SuperviseConfig,
	launch func(coord string, slot, epoch int) (*exec.Cmd, error)) (*LocalFleet, error) {

	coord, err := NewCoordinator(cfg)
	if err != nil {
		return nil, err
	}
	f := &LocalFleet{coord: coord}
	for slot := 0; slot < coord.Spec().Procs; slot++ {
		sc := sup
		sc.Start = func(epoch int) (*exec.Cmd, error) { return launch(coord.Addr(), slot, epoch) }
		if sup.Logf != nil {
			sc.Logf = func(format string, args ...any) {
				sup.Logf("[node %d] "+format, append([]any{slot}, args...)...)
			}
		}
		s, err := Supervise(sc)
		if err != nil {
			f.Stop()
			return nil, fmt.Errorf("distnet: launching node %d: %w", slot, err)
		}
		f.sups = append(f.sups, s)
	}
	return f, nil
}

// Coordinator returns the fleet's coordinator (address, spec, stats,
// custody coverage).
func (f *LocalFleet) Coordinator() *Coordinator { return f.coord }

// Wait blocks for the coordinator's outcome, then stops and reaps every
// supervisor: the run's verdict is the coordinator's, so a child killed
// after its result is not pointlessly relaunched. childErr is the first
// failure a supervisor latched before that (a launch error, a respawn
// budget spent); it does not change the verdict.
func (f *LocalFleet) Wait() (reports []NodeReport, runErr, childErr error) {
	reports, runErr = f.coord.Wait()
	for _, s := range f.sups {
		s.Stop()
	}
	for _, s := range f.sups {
		if err := s.Wait(); err != nil && childErr == nil {
			childErr = err
		}
	}
	return reports, runErr, childErr
}

// Stop tears the fleet down mid-run: supervisors first, then the
// coordinator. Wait then returns ErrCoordClosed once custody is on disk
// and every child is reaped. Safe to call more than once.
func (f *LocalFleet) Stop() {
	for _, s := range f.sups {
		s.Stop()
	}
	f.coord.Close()
}

// Kill SIGKILLs slot's current child — fault injection; the slot's
// supervisor respawns it within its budget.
func (f *LocalFleet) Kill(slot int) { f.sups[slot].Kill() }

// Respawns sums the supervisors' relaunches across the fleet.
func (f *LocalFleet) Respawns() int {
	n := 0
	for _, s := range f.sups {
		n += s.Respawns()
	}
	return n
}
