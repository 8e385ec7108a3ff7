package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"

	"specomp/internal/checkpoint"
	"specomp/internal/distnet"
	"specomp/internal/sched"
)

// The svc-jobs nodes are this binary, re-exec'd: a process started with
// nodeEnv set runs runNode against the coordinator named there and never
// reaches the benchmark proper (main and TestMain check it first). The harness therefore depends on no
// cmd/* program.
const (
	nodeEnv      = "SPECOMP_BENCH_NODE_COORD"
	nodeEpochEnv = "SPECOMP_BENCH_NODE_EPOCH"
)

// runNode is the body of a re-exec'd node process: one distnet.RunNode
// against coord, returning the process exit code.
func runNode(coord string) int {
	// The parent holds the write end of our stdin and never writes: EOF means
	// the parent is gone (killed, Ctrl-C), and an orphan node must not outlive
	// the benchmark.
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin)
		os.Exit(3)
	}()
	epoch := 0
	_, _ = fmt.Sscan(os.Getenv(nodeEpochEnv), &epoch) // absent or malformed: first incarnation
	if _, err := distnet.RunNode(distnet.NodeConfig{Coord: coord, Epoch: epoch}); err != nil {
		fmt.Fprintln(os.Stderr, "bench node:", err)
		return 1
	}
	return 0
}

// nodeLauncher builds the scheduler's NodeLauncher around the running
// executable.
func nodeLauncher() (sched.NodeLauncher, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating the bench binary: %w", err)
	}
	return func(info sched.LaunchInfo) (*exec.Cmd, error) {
		cmd := exec.Command(self)
		cmd.Env = append(os.Environ(),
			nodeEnv+"="+info.Coord,
			fmt.Sprintf("%s=%d", nodeEpochEnv, info.Epoch))
		cmd.Stderr = os.Stderr
		// Held open for the child's lifetime; exec closes it after Wait.
		if _, err := cmd.StdinPipe(); err != nil {
			return nil, err
		}
		return cmd, nil
	}, nil
}

// jobTimes is one job's timeline, bench clock at both ends and the
// scheduler's and nodes' own stamps in between. The five phases partition
// [submitCall, doneSeen], so they sum to the job's tts by construction.
type jobTimes struct {
	submitCall time.Time // just before Submit (dispatch happens inside it when ranks are free)
	admitted   time.Time // JobStatus.SubmittedAt
	dispatched time.Time // JobStatus.StartedAt
	iter0      time.Time // earliest NodeReport.StartUnix
	lastResult time.Time // latest StartUnix + WallSec
	doneSeen   time.Time // StateDone observed by the poller
}

func (j *jobTimes) phases() (submit, wait, launch, run, finish float64) {
	return j.admitted.Sub(j.submitCall).Seconds(),
		j.dispatched.Sub(j.admitted).Seconds(),
		j.iter0.Sub(j.dispatched).Seconds(),
		j.lastResult.Sub(j.iter0).Seconds(),
		j.doneSeen.Sub(j.lastResult).Seconds()
}

func fromUnix(sec float64) time.Time { return time.Unix(0, int64(sec*1e9)) }

// service is the scheduler under test for one pass of svc-jobs: a pool of
// spec.Procs ranks (one job at a time), FileStore custody in a temp dir,
// child node processes. One client submits and polls: a closed loop.
type service struct {
	sched      *sched.Scheduler
	custodyDir string
}

func startService(w workload, tmpRoot string) (*service, error) {
	launch, err := nodeLauncher()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpRoot, "custody-")
	if err != nil {
		return nil, err
	}
	store, err := checkpoint.NewFileStore(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s, err := sched.New(sched.Config{
		TotalRanks: w.spec.Procs, Launch: launch, Custody: store, RunTimeout: unitTimeout,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &service{sched: s, custodyDir: dir}, nil
}

// stop kills any fleet still running (reaping its children) and removes the
// custody directory.
func (s *service) stop() {
	s.sched.Close()
	os.RemoveAll(s.custodyDir)
}

// runJob submits one job and polls it to a terminal state: one svc-jobs unit.
func (s *service) runJob(w workload, seed int64, traced bool, ref *reference, sp *spanRec, id int) unit {
	u := unit{id: id, job: &jobTimes{}}
	spec := w.spec
	spec.Seed = seed
	spec.Trace = traced
	if !traced {
		spec.ObsPushMS = -1
	}
	// Normalized here as Submit normalizes its own copy: the verifier needs
	// the defaults filled in.
	if err := spec.Normalize(); err != nil {
		u.err = err
		return u
	}

	win := openWindow()
	u.job.submitCall = win.start
	st, err := s.sched.Submit(sched.JobSpec{Name: w.name, Spec: spec})
	if err != nil {
		win.close(&u)
		u.err = fmt.Errorf("submit: %w", err)
		return u
	}
	deadline := win.start.Add(unitTimeout)
	for st.State != sched.StateDone && st.State != sched.StateFailed && st.State != sched.StateCanceled {
		if time.Now().After(deadline) {
			_, _ = s.sched.Cancel(st.ID) // tears the fleet down; the outcome is already a failure
			win.close(&u)
			u.err = fmt.Errorf("job %s still %s after %v", st.ID, st.State, unitTimeout)
			return u
		}
		time.Sleep(time.Millisecond)
		if st, err = s.sched.Status(st.ID); err != nil {
			win.close(&u)
			u.err = err
			return u
		}
	}
	win.close(&u)
	u.job.doneSeen = win.start.Add(time.Duration(u.wall * float64(time.Second)))
	if st.State != sched.StateDone {
		u.err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
		return u
	}

	u.job.admitted, u.job.dispatched = fromUnix(st.SubmittedAt), fromUnix(st.StartedAt)
	for i, rep := range st.Reports {
		start, end := fromUnix(rep.StartUnix), fromUnix(rep.StartUnix+rep.WallSec)
		if i == 0 || start.Before(u.job.iter0) {
			u.job.iter0 = start
		}
		if end.After(u.job.lastResult) {
			u.job.lastResult = end
		}
		u.ranks = append(u.ranks, rankFromReport(rep)) // child processes report through NodeReport only
	}
	u.setup = u.wall - u.slowestRun()

	if sp != nil {
		root := sp.add("job", -1, id, u.job.submitCall, u.job.doneSeen)
		sp.add("submit", root, id, u.job.submitCall, u.job.admitted)
		sp.add("wait", root, id, u.job.admitted, u.job.dispatched)
		sp.add("launch", root, id, u.job.dispatched, u.job.iter0)
		sp.add("run", root, id, u.job.iter0, u.job.lastResult)
		sp.add("finish", root, id, u.job.lastResult, u.job.doneSeen)
	}
	vs := sp.begin("verify", -1, id)
	u.solErr, u.err = ref.checkFleet(spec, st.Reports)
	sp.end(vs)
	return u
}
