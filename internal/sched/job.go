package sched

// The job model: what a tenant submits, the lifecycle it moves through,
// and the status view the HTTP API serves. A Job wraps one distnet run
// (its own coordinator, its own slice of the node pool, its own custody
// namespace); the scheduler moves it through the state machine below.
//
//	           ┌────────────── preempt ──────────────┐
//	           ▼                                     │
//	pending ─ start ─▶ running ── evict ──▶ evicting ┘
//	   ▲                  │ │                  │
//	   └── resume ────────┘ │                  └─ run error ─▶ failed
//	  (state: preempted)    ├─▶ done
//	                        └─▶ failed
//
// cancel is reachable from pending, preempted and running. A preempted job
// re-enters the queue with its original submission sequence number, so it
// resumes ahead of later arrivals of equal priority; its custody namespace
// still holds the snapshots its next incarnation restores from.

import (
	"fmt"
	"time"

	"specomp/internal/checkpoint"
	"specomp/internal/distnet"
)

// JobState is one stage of a job's lifecycle.
type JobState string

const (
	// StatePending: admitted, waiting in the priority queue for pool ranks.
	StatePending JobState = "pending"
	// StateRunning: a coordinator and its node fleet are live.
	StateRunning JobState = "running"
	// StateEvicting: preemption in flight — the scheduler is waiting for
	// custody coverage, then tearing the fleet down.
	StateEvicting JobState = "evicting"
	// StatePreempted: evicted to custody and re-queued; the next start
	// restores from the job's checkpoint namespace.
	StatePreempted JobState = "preempted"
	// StateDone: all ranks reported converged results.
	StateDone JobState = "done"
	// StateFailed: the run (or its supervision) failed terminally.
	StateFailed JobState = "failed"
	// StateCanceled: removed by DELETE /jobs/{id}.
	StateCanceled JobState = "canceled"
)

// active reports whether the state still holds queue or pool resources.
func (s JobState) active() bool {
	switch s {
	case StatePending, StateRunning, StateEvicting, StatePreempted:
		return true
	}
	return false
}

// JobSpec is a submission: who wants what run, how urgently.
type JobSpec struct {
	// Name is a human label (defaults to the run's app name). It need not
	// be unique; the scheduler assigns the unique id.
	Name string `json:"name,omitempty"`
	// Tenant attributes the job for admission control and occupancy
	// metrics (default "default").
	Tenant string `json:"tenant,omitempty"`
	// Priority orders the queue: higher runs first, and a submission may
	// preempt running jobs of strictly lower priority (default 0).
	Priority int `json:"priority"`
	// Spec is the distnet run to execute. Spec.Procs ranks are claimed
	// from the pool while the job runs. Spec.Job is overwritten with the
	// job id so every job's fleet metrics are uniquely labelled.
	Spec distnet.RunSpec `json:"spec"`
}

// Job is one scheduled run. All mutable fields are guarded by the
// scheduler's mutex; the HTTP layer only ever sees Status() copies.
type Job struct {
	ID string
	JobSpec

	seq   uint64 // admission sequence: FIFO tiebreak within a priority
	state JobState

	submitted    time.Time
	pendingSince time.Time // start of the current queue wait
	started      time.Time // current/last run start
	finished     time.Time
	evictedAt    time.Time // when the last eviction completed (resume latency base)

	preemptions int
	restores    int     // custody restores summed over resumes (coordinator-side)
	waited      float64 // completed queue waits; current wait added in status()
	canceled    bool
	err         error
	custodyErr  string               // first write failure the job's custody store latched
	reports     []distnet.NodeReport // final converged reports (done jobs)

	// store is the job's custody namespace; it survives evictions (that is
	// the point) and is cleared when the job leaves the system.
	store checkpoint.Store
	// fleet aggregates the job's node metrics; it outlives the run so the
	// merged /metrics keeps serving finished jobs' final snapshots.
	fleet *distnet.FleetObs
	// run is the live fleet — coordinator plus supervised node processes —
	// nil unless running/evicting; forked is when its last child was started
	// (the end of the launch's spawn phase, the start of its hello phase).
	run    *distnet.LocalFleet
	forked time.Time
}

// JobStatus is the JSON view of one job.
type JobStatus struct {
	ID          string               `json:"id"`
	Name        string               `json:"name"`
	Tenant      string               `json:"tenant"`
	Priority    int                  `json:"priority"`
	State       JobState             `json:"state"`
	App         string               `json:"app"`
	Procs       int                  `json:"procs"`
	Preemptions int                  `json:"preemptions"`
	Restores    int                  `json:"restores,omitempty"`
	SubmittedAt float64              `json:"submitted_unix"`
	StartedAt   float64              `json:"started_unix,omitempty"`
	FinishedAt  float64              `json:"finished_unix,omitempty"`
	WaitSec     float64              `json:"wait_sec"` // cumulative time spent queued
	Error       string               `json:"error,omitempty"`
	Reports     []distnet.NodeReport `json:"reports,omitempty"`
	// CustodyError is set once the job's custody store has failed a write:
	// an eviction from then on may have to restart the job from scratch.
	CustodyError string `json:"custody_error,omitempty"`
}

// status snapshots the job under the scheduler lock.
func (j *Job) status(now time.Time, waited float64, reports []distnet.NodeReport) JobStatus {
	st := JobStatus{
		ID: j.ID, Name: j.Name, Tenant: j.Tenant, Priority: j.Priority,
		State: j.state, App: j.Spec.App, Procs: j.Spec.Procs,
		Preemptions: j.preemptions, Restores: j.restores,
		SubmittedAt: unix(j.submitted), WaitSec: waited,
		Reports: reports, CustodyError: j.custodyErr,
	}
	if !j.started.IsZero() {
		st.StartedAt = unix(j.started)
	}
	if !j.finished.IsZero() {
		st.FinishedAt = unix(j.finished)
	}
	if j.state == StatePending || j.state == StatePreempted {
		st.WaitSec += now.Sub(j.pendingSince).Seconds()
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

func unix(t time.Time) float64 {
	if t.IsZero() {
		return 0
	}
	return float64(t.UnixNano()) / 1e9
}

// waitTotal is the job's cumulative queue wait over all attempts so far.
func (j *Job) waitTotal() float64 { return j.waited }

// jobError wraps a run failure with the job identity for log lines.
func jobError(j *Job, err error) error {
	return fmt.Errorf("job %s (%s): %w", j.ID, j.Name, err)
}
