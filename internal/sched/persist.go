package sched

// Queue persistence: a draining scheduler writes its pending queue (and
// the preempted jobs parked in it) to <StateDir>/sched-queue.json; the
// next scheduler consumes the file at startup and re-admits every entry
// that is still feasible on its pool (the rest load as failed) with its
// original sequence number, so the restart preserves dispatch order.
// Preempted jobs come back in the preempted state and restore from their
// (durable) custody namespaces when dispatched. Running jobs are
// never in this file — Drain evicts them to custody first, which parks
// them in the queue.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"specomp/internal/distnet"
)

const queueFileName = "sched-queue.json"

// persistedJob is one queue entry on disk.
type persistedJob struct {
	ID          string          `json:"id"`
	Name        string          `json:"name"`
	Tenant      string          `json:"tenant"`
	Priority    int             `json:"priority"`
	Seq         uint64          `json:"seq"`
	Preemptions int             `json:"preemptions"`
	Restores    int             `json:"restores,omitempty"`
	WaitedSec   float64         `json:"waited_sec"`
	Submitted   float64         `json:"submitted_unix"`
	EvictedAt   float64         `json:"evicted_unix,omitempty"`
	Spec        distnet.RunSpec `json:"spec"`
}

// persistedQueue is the on-disk queue file.
type persistedQueue struct {
	SavedAt float64        `json:"saved_unix"`
	NextID  int            `json:"next_id"`
	NextSeq uint64         `json:"next_seq"`
	Jobs    []persistedJob `json:"jobs"`
}

// persistLocked writes the queue file (atomic replace). Called with the
// scheduler lock held, after draining has emptied the running set.
func (s *Scheduler) persistLocked() error {
	pq := persistedQueue{
		SavedAt: unix(time.Now()),
		NextID:  s.nextID,
		NextSeq: s.nextSeq,
		Jobs:    []persistedJob{},
	}
	for _, j := range s.queue.ordered() {
		pq.Jobs = append(pq.Jobs, persistedJob{
			ID: j.ID, Name: j.Name, Tenant: j.Tenant, Priority: j.Priority,
			Seq: j.seq, Preemptions: j.preemptions, Restores: j.restores,
			WaitedSec: j.waited, Submitted: unix(j.submitted),
			EvictedAt: unix(j.evictedAt), Spec: j.Spec,
		})
	}
	if err := os.MkdirAll(s.cfg.StateDir, 0o755); err != nil {
		return fmt.Errorf("sched: persisting queue: %w", err)
	}
	blob, err := json.MarshalIndent(pq, "", " ")
	if err != nil {
		return fmt.Errorf("sched: persisting queue: %w", err)
	}
	path := filepath.Join(s.cfg.StateDir, queueFileName)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return fmt.Errorf("sched: persisting queue: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("sched: persisting queue: %w", err)
	}
	s.logf("persisted %d queued jobs to %s", len(pq.Jobs), path)
	return nil
}

// loadState consumes a persisted queue file, if present. Called from New
// before the scheduler is visible to anyone, so no locking.
func (s *Scheduler) loadState() error {
	path := filepath.Join(s.cfg.StateDir, queueFileName)
	blob, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("sched: loading persisted queue: %w", err)
	}
	var pq persistedQueue
	if err := json.Unmarshal(blob, &pq); err != nil {
		return fmt.Errorf("sched: loading persisted queue %s: %w", path, err)
	}
	now := time.Now()
	for _, p := range pq.Jobs {
		j := &Job{
			ID: p.ID,
			JobSpec: JobSpec{
				Name: p.Name, Tenant: p.Tenant, Priority: p.Priority, Spec: p.Spec,
			},
			seq:          p.Seq,
			state:        StatePending,
			submitted:    fromUnix(p.Submitted),
			pendingSince: now,
			evictedAt:    fromUnix(p.EvictedAt),
			preemptions:  p.Preemptions,
			restores:     p.Restores,
			waited:       p.WaitedSec,
		}
		if j.preemptions > 0 {
			// Came back mid-flight: dispatching it is a resume, and its
			// custody namespace (durable, outside StateDir bookkeeping)
			// still holds the snapshots to restore from.
			j.state = StatePreempted
			if j.evictedAt.IsZero() {
				j.evictedAt = now
			}
			// The namespace is held from load on, so whichever way the job
			// ends — resumed, canceled in the queue, infeasible below — its
			// snapshots are cleared with it.
			if s.cfg.Custody != nil {
				if ns, err := s.cfg.Custody.Namespace(j.ID); err == nil {
					j.store = ns
				}
			}
		}
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
		s.tenants[j.Tenant] = true
		if err := s.feasible(&j.Spec); err != nil {
			// The pool shrank across the restart, or the file was damaged:
			// visible at GET /jobs/{id}, never queued.
			s.failLocked(j, err)
			continue
		}
		s.queue.push(j)
	}
	if pq.NextID > s.nextID {
		s.nextID = pq.NextID
	}
	if pq.NextSeq > s.nextSeq {
		s.nextSeq = pq.NextSeq
	}
	if err := os.Remove(path); err != nil {
		return fmt.Errorf("sched: consuming persisted queue: %w", err)
	}
	s.logf("recovered %d queued jobs from %s", len(pq.Jobs), path)
	return nil
}

func fromUnix(sec float64) time.Time {
	if sec == 0 {
		return time.Time{}
	}
	return time.Unix(0, int64(sec*1e9))
}
