// Package sched turns the distnet substrate into a service: a long-running
// multi-run scheduler that admits jobs over an HTTP+JSON API, queues them
// by priority, shards many concurrent clusters across a bounded node pool
// (one coordinator and one slice of supervised node processes per job),
// enforces per-tenant admission quotas, and preempts batch work for
// high-priority arrivals via checkpoint-backed eviction: the victim's
// fleet is torn down at a custody boundary, its rank claim freed, and it
// re-enters the queue to resume later from its own custody namespace —
// converging on the same answer an uninterrupted run produces.
//
// This is the job-granularity analogue of the paper's speculation: the
// cheap common case (batch runs proceed optimistically, assuming no one
// outranks them) backed by a provable fallback (evict to a snapshot,
// replay from it) when the assumption breaks.
package sched

import (
	"errors"
	"fmt"
	"os/exec"
	"sync"
	"time"

	"specomp/internal/checkpoint"
	"specomp/internal/distnet"
	"specomp/internal/obs"
)

// ErrDraining rejects submissions while the scheduler is shutting down
// (the HTTP layer maps it to 503).
var ErrDraining = errors.New("sched: scheduler is draining, not accepting jobs")

// ErrQuota rejects a submission that would exceed its tenant's admission
// quota (mapped to 429).
var ErrQuota = errors.New("sched: tenant quota exceeded")

// ErrInfeasible rejects a job that could never run on this pool (mapped
// to 400).
var ErrInfeasible = errors.New("sched: job cannot fit the node pool")

// ErrUnknownJob reports a job id the scheduler has never seen (404).
var ErrUnknownJob = errors.New("sched: unknown job")

// ErrJobFinished reports a cancel aimed at a job already in a terminal
// state (409).
var ErrJobFinished = errors.New("sched: job already finished")

// LaunchInfo tells the launcher which node process to start.
type LaunchInfo struct {
	// JobID names the job the node will serve.
	JobID string
	// Slot is the node's index within the job's fleet (0..Procs-1).
	Slot int
	// Epoch is the incarnation epoch (0 first launch; >0 supervised respawn).
	Epoch int
	// Coord is the job coordinator's address the node must join.
	Coord string
}

// NodeLauncher builds the command for one node process of one job; the
// scheduler wraps every slot in a distnet.Supervisor, so crashed nodes
// respawn with bumped epochs exactly as in a single-run speccoord -spawn.
// A nil launcher makes the scheduler admission/queue-only: jobs are
// admitted, quota-checked and ordered but never dispatched — the shape the
// unit tests and dry runs use.
type NodeLauncher func(info LaunchInfo) (*exec.Cmd, error)

// defaultCheckpointEvery is the checkpoint cadence given to submissions
// that set none, so every job has custody to be evicted to.
const defaultCheckpointEvery = 5

// Config parameterizes a Scheduler.
type Config struct {
	// TotalRanks is the node-pool capacity: the sum of Procs over running
	// jobs never exceeds it. Required.
	TotalRanks int
	// Launch starts one node process (see NodeLauncher). Nil = queue-only.
	Launch NodeLauncher
	// Custody is the durable custody root; each job gets its own namespace
	// (<dir>/<job-id>/proc-N.ckpt) so concurrent jobs cannot clobber each
	// other and preempted jobs survive scheduler restarts. Nil = per-job
	// in-memory stores (preemption still works, restarts lose snapshots).
	Custody *checkpoint.FileStore
	// StateDir, when non-empty, persists the pending queue across restarts:
	// Drain writes sched-queue.json there and New consumes it.
	StateDir string
	// MaxJobsPerTenant bounds one tenant's active (queued + running) jobs;
	// 0 = unlimited.
	MaxJobsPerTenant int
	// MaxRanksPerTenant bounds one tenant's active rank claim; 0 = unlimited.
	MaxRanksPerTenant int
	// MaxRespawns is each node slot's supervision budget (default 3).
	MaxRespawns int
	// RunTimeout bounds each run attempt, join to last result (default 10m).
	RunTimeout time.Duration
	// EvictGrace bounds how long an eviction waits for every rank of the
	// victim to reach custody before killing the fleet (default 10s). A
	// victim evicted without full coverage restarts from scratch instead of
	// from a torn mix of snapshots.
	EvictGrace time.Duration
	// NodeTimeout and RejoinWait forward the coordinator's control-plane
	// liveness windows (see distnet.CoordConfig).
	NodeTimeout time.Duration
	RejoinWait  time.Duration
	// Logf, when non-nil, receives scheduler lifecycle lines.
	Logf func(format string, args ...any)
}

// Stats are the scheduler's cumulative counters, snapshot via Stats().
type Stats struct {
	Submitted   int
	Completed   int
	Failed      int
	Canceled    int
	Rejected    int // quota rejections
	Preemptions int // priority evictions (drain evictions not included)
	Resumes     int
}

// Scheduler is the multi-run job scheduler.
type Scheduler struct {
	cfg Config
	reg *obs.Registry // the scheduler's own series, served from /metrics
	met schedMetrics

	mu        sync.Mutex
	cond      *sync.Cond // broadcast on every running-set change
	jobs      map[string]*Job
	order     []string // submission order, for listings
	queue     jobQueue
	usedRanks int
	nextSeq   uint64
	nextID    int
	tenants   map[string]bool // every tenant ever seen (gauge refresh set)
	draining  bool
	closed    bool
	stats     Stats
}

// New builds a scheduler and, when cfg.StateDir holds a persisted queue
// from a drained predecessor, resumes it (preempted jobs will restore from
// their custody namespaces on dispatch).
func New(cfg Config) (*Scheduler, error) {
	if cfg.TotalRanks <= 0 {
		return nil, fmt.Errorf("sched: TotalRanks must be positive")
	}
	if cfg.MaxRespawns <= 0 {
		cfg.MaxRespawns = 3
	}
	if cfg.RunTimeout <= 0 {
		cfg.RunTimeout = 10 * time.Minute
	}
	if cfg.EvictGrace <= 0 {
		cfg.EvictGrace = 10 * time.Second
	}
	reg := obs.NewRegistry()
	s := &Scheduler{
		cfg:     cfg,
		reg:     reg,
		met:     newSchedMetrics(reg),
		jobs:    make(map[string]*Job),
		tenants: make(map[string]bool),
	}
	s.cond = sync.NewCond(&s.mu)
	if cfg.StateDir != "" {
		if err := s.loadState(); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	s.updateGaugesLocked()
	s.scheduleLocked()
	s.mu.Unlock()
	return s, nil
}

func (s *Scheduler) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Registry returns the registry holding the scheduler's own series.
func (s *Scheduler) Registry() *obs.Registry { return s.reg }

// Stats snapshots the cumulative counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Submit admits one job: quota-checked, normalized, queued, and (when
// ranks are free or preemption applies) dispatched. The returned status
// reflects the job immediately after scheduling ran once.
func (s *Scheduler) Submit(req JobSpec) (JobStatus, error) {
	spec := req.Spec
	if err := s.feasible(&spec); err != nil {
		return JobStatus{}, err
	}
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	if req.Name == "" {
		req.Name = spec.App
	}
	if spec.CheckpointEvery == 0 {
		// Preemption needs custody to evict to; an uncheckpointed batch job
		// would lose all progress on every eviction.
		spec.CheckpointEvery = defaultCheckpointEvery
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.closed {
		return JobStatus{}, ErrDraining
	}
	if err := s.checkQuotaLocked(req.Tenant, spec.Procs); err != nil {
		s.stats.Rejected++
		s.met.outcome("rejected")
		return JobStatus{}, err
	}

	id := fmt.Sprintf("job-%04d", s.nextID)
	s.nextID++
	spec.Job = id // every job's fleet series are uniquely job-labelled
	now := time.Now()
	j := &Job{
		ID:      id,
		JobSpec: JobSpec{Name: req.Name, Tenant: req.Tenant, Priority: req.Priority, Spec: spec},
		seq:     s.nextSeq,
		state:   StatePending,

		submitted:    now,
		pendingSince: now,
	}
	s.nextSeq++
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.tenants[req.Tenant] = true
	s.queue.push(j)
	s.stats.Submitted++
	s.met.outcome("submitted")
	s.logf("job %s submitted: %s tenant=%s priority=%d procs=%d app=%s",
		id, req.Name, req.Tenant, req.Priority, spec.Procs, spec.App)

	s.scheduleLocked()
	s.updateGaugesLocked()
	return j.status(time.Now(), j.waitTotal(), nil), nil
}

// feasible normalizes spec and reports whether it could ever run on this
// pool — the checks every admission makes, a fresh submission's and a
// persisted queue entry's alike (an infeasible job at the head of a strict
// head-of-line queue would starve everything behind it).
func (s *Scheduler) feasible(spec *distnet.RunSpec) error {
	fits := func() error {
		if spec.Procs > s.cfg.TotalRanks {
			return fmt.Errorf("%w: %d ranks requested, pool holds %d", ErrInfeasible, spec.Procs, s.cfg.TotalRanks)
		}
		return nil
	}
	// Asked before Normalize, which builds a pipeline's stage graph one stage
	// per rank, and again after it, since it gives a Procs of zero a default.
	if err := fits(); err != nil {
		return err
	}
	if err := spec.Normalize(); err != nil {
		return err
	}
	return fits()
}

// checkQuotaLocked enforces the tenant's admission quota over its active
// jobs and ranks.
func (s *Scheduler) checkQuotaLocked(tenant string, procs int) error {
	jobs, ranks := s.tenantUsageLocked(tenant)
	if s.cfg.MaxJobsPerTenant > 0 && jobs+1 > s.cfg.MaxJobsPerTenant {
		return fmt.Errorf("%w: tenant %q has %d active jobs (max %d)",
			ErrQuota, tenant, jobs, s.cfg.MaxJobsPerTenant)
	}
	if s.cfg.MaxRanksPerTenant > 0 && ranks+procs > s.cfg.MaxRanksPerTenant {
		return fmt.Errorf("%w: tenant %q holds %d active ranks, %d more requested (max %d)",
			ErrQuota, tenant, ranks, procs, s.cfg.MaxRanksPerTenant)
	}
	return nil
}

func (s *Scheduler) tenantUsageLocked(tenant string) (jobs, ranks int) {
	for _, j := range s.jobs {
		if j.Tenant == tenant && j.state.active() {
			jobs++
			ranks += j.Spec.Procs
		}
	}
	return jobs, ranks
}

// scheduleLocked dispatches queued jobs in priority order. The head of the
// queue either starts (ranks free), triggers preemption (it outranks
// enough running work to fit), or blocks the queue — strict priority order
// with no backfill past a blocked job, so big high-priority jobs cannot be
// starved by a stream of small ones.
func (s *Scheduler) scheduleLocked() {
	if s.cfg.Launch == nil || s.draining || s.closed {
		return
	}
	for s.queue.Len() > 0 {
		head := s.queue.ordered()[0]
		free := s.cfg.TotalRanks - s.usedRanks
		if head.Spec.Procs <= free {
			s.queue.remove(head)
			s.startLocked(head)
			continue
		}
		if s.preemptForLocked(head, head.Spec.Procs-free) {
			// Victims are draining to custody; the freed ranks dispatch this
			// job when their teardown completes.
			s.logf("job %s (priority %d) waiting on preemption for %d ranks",
				head.ID, head.Priority, head.Spec.Procs-free)
		}
		return
	}
}

// preemptForLocked evicts just enough strictly-lower-priority running work
// to fit j, lowest priority first (most recently started among equals, so
// the oldest work survives). Returns false — and evicts nothing — when
// even evicting every eligible victim would not free enough ranks.
func (s *Scheduler) preemptForLocked(j *Job, need int) bool {
	var candidates []*Job
	for _, r := range s.jobs {
		if r.state == StateRunning && !r.canceled && r.Priority < j.Priority {
			candidates = append(candidates, r)
		}
	}
	// Lowest priority first; among equals the youngest run goes first.
	for i := 0; i < len(candidates); i++ {
		for k := i + 1; k < len(candidates); k++ {
			a, b := candidates[i], candidates[k]
			if b.Priority < a.Priority || (b.Priority == a.Priority && b.started.After(a.started)) {
				candidates[i], candidates[k] = b, a
			}
		}
	}
	total := 0
	var victims []*Job
	for _, c := range candidates {
		victims = append(victims, c)
		total += c.Spec.Procs
		if total >= need {
			break
		}
	}
	if total < need {
		return false
	}
	for _, v := range victims {
		s.logf("preempting job %s (priority %d) for job %s (priority %d)",
			v.ID, v.Priority, j.ID, j.Priority)
		s.stats.Preemptions++
		s.met.preemptions.Inc()
		s.evictLocked(v)
	}
	return true
}

// evictLocked begins tearing a running job down to custody: the state flips
// to evicting, and a goroutine waits (bounded) until the job's coordinator
// holds a snapshot of every rank before killing the fleet. Closing the
// coordinator commits that custody to the job's namespace before its Wait
// returns, so by the time the run waiter completes the transition to
// preempted the eviction is on disk.
func (s *Scheduler) evictLocked(j *Job) {
	run := j.run
	if run == nil || j.state == StateEvicting {
		return
	}
	j.state = StateEvicting
	grace := s.cfg.EvictGrace
	if j.Spec.CheckpointEvery <= 0 {
		grace = 0 // no snapshots will ever come; kill now, restart later
	}
	go func() {
		if grace > 0 {
			run.Coordinator().CustodyCovered(grace) // also returns if the run ends on its own
		}
		run.Stop()
	}()
}

// storeCovered reports whether every rank in [0, procs) has a checkpoint
// in the store — the condition for a resume that restores uniformly
// instead of mixing snapshots with from-scratch ranks.
func storeCovered(store checkpoint.Store, procs int) bool {
	if store == nil {
		return false
	}
	for r := 0; r < procs; r++ {
		if _, ok := store.Load(r); !ok {
			return false
		}
	}
	return true
}

// startLocked dispatches one job: custody namespace, fleet aggregator,
// coordinator, then one supervised node process per rank.
func (s *Scheduler) startLocked(j *Job) {
	now := time.Now()
	if j.store == nil {
		if s.cfg.Custody != nil {
			ns, err := s.cfg.Custody.Namespace(j.ID)
			if err != nil {
				s.failLocked(j, fmt.Errorf("custody namespace: %w", err))
				return
			}
			j.store = ns
		} else {
			j.store = checkpoint.NewMemStore()
		}
	}
	j.fleet = distnet.NewFleetObs(j.Spec.Job)
	logf := func(format string, args ...any) {
		s.logf("[%s] "+format, append([]any{j.ID}, args...)...)
	}
	run, err := distnet.StartLocal(distnet.CoordConfig{
		Spec: j.Spec, Timeout: s.cfg.RunTimeout,
		Custody: j.store, Fleet: j.fleet,
		NodeTimeout: s.cfg.NodeTimeout, RejoinWait: s.cfg.RejoinWait,
		Logf: logf,
	}, distnet.SuperviseConfig{MaxRespawns: s.cfg.MaxRespawns, Logf: logf},
		func(coord string, slot, epoch int) (*exec.Cmd, error) {
			return s.cfg.Launch(LaunchInfo{JobID: j.ID, Slot: slot, Epoch: epoch, Coord: coord})
		})
	if err != nil {
		s.failLocked(j, err)
		return
	}
	j.forked = time.Now()
	s.met.launch("spawn").Observe(j.forked.Sub(now).Seconds())
	coord := run.Coordinator()
	restores := coord.Stats().CustodyRestores // seeded from the store at construction
	resumed := j.preemptions > 0
	j.restores += restores
	wait := now.Sub(j.pendingSince).Seconds()
	j.waited += wait
	s.met.waitSec.Observe(wait)
	if resumed {
		s.stats.Resumes++
		s.met.resumes.Inc()
		s.met.resumeSec.Observe(now.Sub(j.evictedAt).Seconds())
	}
	j.run = run
	j.state = StateRunning
	j.started = now
	s.usedRanks += j.Spec.Procs
	verb := "started"
	if resumed {
		verb = fmt.Sprintf("resumed (%d custody restores)", restores)
	}
	s.logf("job %s %s on %d ranks at %s after %.3fs queued (pool %d/%d used)",
		j.ID, verb, j.Spec.Procs, coord.Addr(), wait, s.usedRanks, s.cfg.TotalRanks)

	go func() {
		reports, runErr, supErr := run.Wait()
		s.onRunDone(j, reports, runErr, supErr)
	}()
}

// failLocked moves a job to failed from inside the scheduler.
func (s *Scheduler) failLocked(j *Job, err error) {
	j.state = StateFailed
	j.err = err
	j.finished = time.Now()
	s.stats.Failed++
	s.met.outcome("failed")
	s.clearCustody(j)
	s.logf("%v", jobError(j, err))
}

// onRunDone retires one run attempt: frees the rank claim and routes the
// job to done, preempted (requeue), canceled, or failed.
func (s *Scheduler) onRunDone(j *Job, reports []distnet.NodeReport, runErr, supErr error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.usedRanks -= j.Spec.Procs
	j.run = nil
	now := time.Now()
	if st, ok := j.store.(interface{ Err() error }); ok && st.Err() != nil && j.custodyErr == "" {
		// Latched by the store: from here on the job's snapshots are suspect,
		// and an eviction that "restarts from scratch" has its reason on record.
		j.custodyErr = st.Err().Error()
		s.met.custodyErrs.Inc()
		s.logf("job %s: custody writes failed: %s", j.ID, j.custodyErr)
	}
	switch {
	case j.canceled:
		j.state = StateCanceled
		j.finished = now
		s.stats.Canceled++
		s.met.outcome("canceled")
		s.clearCustody(j)
		s.logf("job %s canceled mid-run", j.ID)
	case runErr == nil:
		j.state = StateDone
		j.finished = now
		j.reports = reports
		s.stats.Completed++
		s.met.outcome("done")
		s.met.observeLaunch(j.forked, reports)
		s.clearCustody(j)
		if supErr != nil {
			s.logf("job %s done, but a supervisor latched: %v", j.ID, supErr)
		}
		s.logf("job %s done: %d reports after %.3fs running", j.ID, len(reports), now.Sub(j.started).Seconds())
	case j.state == StateEvicting:
		j.state = StatePreempted
		j.preemptions++
		j.evictedAt = now
		j.pendingSince = now
		if !storeCovered(j.store, j.Spec.Procs) {
			// Partial custody would resume a torn fleet (some ranks restored
			// mid-run, others at iteration zero); restart uniformly instead.
			s.clearCustody(j)
			s.logf("job %s evicted without full custody coverage; it will restart from scratch", j.ID)
		}
		s.queue.push(j)
		s.logf("job %s preempted to custody (eviction #%d), requeued at priority %d",
			j.ID, j.preemptions, j.Priority)
	default:
		err := runErr
		if err == nil {
			err = supErr
		}
		j.state = StateFailed
		j.err = err
		j.finished = now
		s.stats.Failed++
		s.met.outcome("failed")
		s.clearCustody(j)
		s.logf("%v", jobError(j, err))
	}
	s.cond.Broadcast()
	s.scheduleLocked()
	s.updateGaugesLocked()
}

// clearCustody wipes a job's custody namespace: it exists to revive that
// job, and a terminal job's snapshots must not poison a future run.
func (s *Scheduler) clearCustody(j *Job) {
	if fs, ok := j.store.(*checkpoint.FileStore); ok && fs != nil {
		if err := fs.Clear(); err != nil {
			s.logf("job %s: clearing custody: %v", j.ID, err)
		}
	}
	if j.state != StatePreempted {
		j.store = nil
	}
}

// Cancel removes a job: dequeued if waiting, torn down if running. The
// job's custody namespace is cleared either way.
func (s *Scheduler) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	switch j.state {
	case StatePending, StatePreempted:
		s.queue.remove(j)
		j.state = StateCanceled
		j.finished = time.Now()
		s.stats.Canceled++
		s.met.outcome("canceled")
		s.clearCustody(j)
		s.logf("job %s canceled while queued", j.ID)
		s.scheduleLocked()
	case StateRunning, StateEvicting:
		if !j.canceled {
			j.canceled = true
			go j.run.Stop() // the waiter completes the transition
			s.logf("job %s cancel requested; tearing its fleet down", j.ID)
		}
	default:
		return JobStatus{}, fmt.Errorf("%w: %s is %s", ErrJobFinished, id, j.state)
	}
	s.updateGaugesLocked()
	return s.statusLocked(j), nil
}

// Status returns one job's current status.
func (s *Scheduler) Status(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return s.statusLocked(j), nil
}

func (s *Scheduler) statusLocked(j *Job) JobStatus {
	var reports []distnet.NodeReport
	if j.state == StateDone {
		reports = j.reports
	}
	return j.status(time.Now(), j.waitTotal(), reports)
}

// Jobs lists every known job in submission order.
func (s *Scheduler) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.statusLocked(s.jobs[id]))
	}
	return out
}

// TenantUsage is one tenant's live occupancy against its quota.
type TenantUsage struct {
	Jobs     int `json:"jobs"`
	Ranks    int `json:"ranks"`
	MaxJobs  int `json:"max_jobs,omitempty"`
	MaxRanks int `json:"max_ranks,omitempty"`
}

// QueueStatus is the /queue JSON view: pool occupancy, the dispatch-order
// queue, the running set, and per-tenant usage.
type QueueStatus struct {
	TotalRanks int                    `json:"total_ranks"`
	FreeRanks  int                    `json:"free_ranks"`
	Draining   bool                   `json:"draining"`
	Pending    []JobStatus            `json:"pending"`
	Running    []JobStatus            `json:"running"`
	Tenants    map[string]TenantUsage `json:"tenants"`
}

// Queue snapshots the scheduler's queue and occupancy state.
func (s *Scheduler) Queue() QueueStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := QueueStatus{
		TotalRanks: s.cfg.TotalRanks,
		FreeRanks:  s.cfg.TotalRanks - s.usedRanks,
		Draining:   s.draining,
		Pending:    []JobStatus{},
		Running:    []JobStatus{},
		Tenants:    make(map[string]TenantUsage),
	}
	for _, j := range s.queue.ordered() {
		st.Pending = append(st.Pending, s.statusLocked(j))
	}
	for _, id := range s.order {
		j := s.jobs[id]
		if j.state == StateRunning || j.state == StateEvicting {
			st.Running = append(st.Running, s.statusLocked(j))
		}
	}
	for tenant := range s.tenants {
		jobs, ranks := s.tenantUsageLocked(tenant)
		st.Tenants[tenant] = TenantUsage{
			Jobs: jobs, Ranks: ranks,
			MaxJobs: s.cfg.MaxJobsPerTenant, MaxRanks: s.cfg.MaxRanksPerTenant,
		}
	}
	return st
}

// updateGaugesLocked refreshes the level gauges after any state change.
func (s *Scheduler) updateGaugesLocked() {
	s.met.queueDepth.Set(float64(s.queue.Len()))
	running := 0
	for _, j := range s.jobs {
		if j.state == StateRunning || j.state == StateEvicting {
			running++
		}
	}
	s.met.runningJobs.Set(float64(running))
	s.met.freeRanks.Set(float64(s.cfg.TotalRanks - s.usedRanks))
	for tenant := range s.tenants {
		jobs, ranks := s.tenantUsageLocked(tenant)
		s.met.tenantOccupancy(tenant, jobs, ranks)
	}
}

// Drain stops admission (submissions get ErrDraining), evicts every
// running job to custody, waits (bounded) for the fleets to land, and
// persists the queue to StateDir so a restarted scheduler resumes it.
func (s *Scheduler) Drain(timeout time.Duration) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	evicting := 0
	for _, j := range s.jobs {
		if j.state == StateRunning {
			s.evictLocked(j)
			evicting++
		}
	}
	s.logf("draining: %d running jobs evicting to custody, %d queued", evicting, s.queue.Len())

	deadline := time.Now().Add(timeout)
	for s.anyLiveLocked() && time.Now().Before(deadline) {
		s.waitChangeLocked(deadline)
	}
	if s.anyLiveLocked() {
		// Grace expired: kill what is left and give the waiters a moment.
		for _, j := range s.jobs {
			if j.run != nil {
				go j.run.Stop()
			}
		}
		killDeadline := time.Now().Add(5 * time.Second)
		for s.anyLiveLocked() && time.Now().Before(killDeadline) {
			s.waitChangeLocked(killDeadline)
		}
	}
	var err error
	if s.cfg.StateDir != "" {
		err = s.persistLocked()
	}
	s.updateGaugesLocked()
	s.mu.Unlock()
	return err
}

func (s *Scheduler) anyLiveLocked() bool {
	for _, j := range s.jobs {
		if j.state == StateRunning || j.state == StateEvicting {
			return true
		}
	}
	return false
}

// waitChangeLocked waits for a running-set change or the deadline,
// whichever first, without holding the lock while asleep.
func (s *Scheduler) waitChangeLocked(deadline time.Time) {
	wake := time.AfterFunc(time.Until(deadline), s.cond.Broadcast)
	s.cond.Wait()
	wake.Stop()
}

// Close tears everything down without persisting: running fleets are
// killed, queued jobs stay wherever they are. Tests and abnormal exits use
// it; production shutdown goes through Drain.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	var runs []*distnet.LocalFleet
	for _, j := range s.jobs {
		if j.run != nil {
			runs = append(runs, j.run)
		}
	}
	s.mu.Unlock()
	for _, run := range runs {
		run.Stop()
	}
	deadline := time.Now().Add(10 * time.Second)
	s.mu.Lock()
	for s.anyLiveLocked() && time.Now().Before(deadline) {
		s.waitChangeLocked(deadline)
	}
	s.mu.Unlock()
}
