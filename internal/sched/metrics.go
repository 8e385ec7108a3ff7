package sched

// Scheduler-level metrics. These are service series (no job label — they
// describe the scheduler itself); per-job series come from each job's
// FleetObs and carry job/node labels. Everything is served merged from the
// one /metrics endpoint (http.go).

import (
	"time"

	"specomp/internal/distnet"
	"specomp/internal/obs"
)

// Metric names exported by the scheduler.
const (
	// MetricQueueDepth gauges how many jobs are waiting (pending + preempted).
	MetricQueueDepth = "specomp_sched_queue_depth"
	// MetricRunningJobs gauges how many jobs hold pool ranks right now.
	MetricRunningJobs = "specomp_sched_running_jobs"
	// MetricFreeRanks gauges unclaimed pool capacity.
	MetricFreeRanks = "specomp_sched_free_ranks"
	// MetricWaitSeconds is the queue-wait histogram, observed at every
	// dispatch (first starts and resumes alike).
	MetricWaitSeconds = "specomp_sched_wait_seconds"
	// MetricPreemptions counts evictions of running jobs by higher-priority
	// arrivals.
	MetricPreemptions = "specomp_sched_preemptions_total"
	// MetricResumes counts preempted jobs dispatched again.
	MetricResumes = "specomp_sched_resumes_total"
	// MetricResumeSeconds is the preempt→redispatch latency histogram.
	MetricResumeSeconds = "specomp_sched_resume_seconds"
	// MetricJobs counts job outcomes by terminal state (label outcome:
	// done/failed/canceled) plus admissions (submitted) and quota
	// rejections (rejected).
	MetricJobs = "specomp_sched_jobs_total"
	// MetricLaunchSeconds splits dispatch → iteration 0 by phase (label
	// phase): spawn (coordinator up, every child forked — scheduler clock),
	// then hello (last node joined), mesh (last mesh up) and barrier (start
	// barrier released) from the nodes' own stamps, slowest rank each.
	MetricLaunchSeconds = "specomp_sched_launch_seconds"
	// MetricCustodyErrors counts jobs whose custody store latched a write
	// failure.
	MetricCustodyErrors = "specomp_sched_custody_errors_total"
	// MetricCustodyLag gauges, over running jobs, the age of the oldest
	// checkpoint a coordinator accepted but has not yet committed to disk.
	MetricCustodyLag = "specomp_sched_custody_lag_seconds"
	// MetricTenantJobs gauges each tenant's active jobs (label tenant).
	MetricTenantJobs = "specomp_sched_tenant_jobs"
	// MetricTenantRanks gauges each tenant's claimed+queued ranks (label
	// tenant) — the quantity the rank quota bounds.
	MetricTenantRanks = "specomp_sched_tenant_ranks"
)

// schedMetrics bundles the scheduler's instruments. All handles are
// nil-safe, so a nil registry simply turns instrumentation off.
type schedMetrics struct {
	reg         *obs.Registry
	queueDepth  *obs.Gauge
	runningJobs *obs.Gauge
	freeRanks   *obs.Gauge
	waitSec     *obs.Histogram
	preemptions *obs.Counter
	resumes     *obs.Counter
	resumeSec   *obs.Histogram
	custodyErrs *obs.Counter
	custodyLag  *obs.Gauge
	// outcomes holds the jobs_total series by outcome label, each made on
	// first use so an outcome never seen stays out of the exposition.
	// Guarded by the scheduler's mu.
	outcomes map[string]*obs.Counter
}

func newSchedMetrics(reg *obs.Registry) schedMetrics {
	// 1ms … ~1100s: queue waits span "immediately dispatched" to "parked
	// behind a long batch run".
	waitBuckets := obs.ExpBuckets(0.001, 2, 21)
	return schedMetrics{
		reg:         reg,
		queueDepth:  reg.Gauge(MetricQueueDepth, "Jobs waiting for pool ranks."),
		runningJobs: reg.Gauge(MetricRunningJobs, "Jobs currently holding pool ranks."),
		freeRanks:   reg.Gauge(MetricFreeRanks, "Unclaimed node-pool ranks."),
		waitSec:     reg.Histogram(MetricWaitSeconds, "Queue wait per dispatch (s).", waitBuckets),
		preemptions: reg.Counter(MetricPreemptions, "Running jobs evicted by higher-priority arrivals."),
		resumes:     reg.Counter(MetricResumes, "Preempted jobs dispatched again from custody."),
		resumeSec:   reg.Histogram(MetricResumeSeconds, "Eviction-to-redispatch latency (s).", waitBuckets),
		custodyErrs: reg.Counter(MetricCustodyErrors, "Jobs whose custody store latched a write failure."),
		custodyLag:  reg.Gauge(MetricCustodyLag, "Age of the oldest accepted, uncommitted checkpoint (s)."),
		outcomes:    make(map[string]*obs.Counter),
	}
}

// launch returns one phase's slice of the launch-latency histogram
// (0.25 ms … ~8 s).
func (m *schedMetrics) launch(phase string) *obs.Histogram {
	return m.reg.Histogram(MetricLaunchSeconds, "Dispatch-to-iteration-0 latency by phase (s).",
		obs.ExpBuckets(0.00025, 2, 16), obs.L("phase", phase))
}

// observeLaunch attributes a finished job's launch from its nodes' stamps.
// Each phase ends when its slowest rank gets there; a report without stamps
// (a node from an older build) leaves the job out.
func (m *schedMetrics) observeLaunch(forked time.Time, reports []distnet.NodeReport) {
	var joined, mesh, released float64
	for _, r := range reports {
		if r.JoinedUnix == 0 {
			return
		}
		joined, mesh, released = max(joined, r.JoinedUnix), max(mesh, r.MeshUnix), max(released, r.ReleasedUnix)
	}
	m.launch("hello").Observe(max(0, joined-unix(forked)))
	m.launch("mesh").Observe(max(0, mesh-joined))
	m.launch("barrier").Observe(max(0, released-mesh))
}

// outcome bumps the jobs_total counter for one terminal/admission event.
func (m *schedMetrics) outcome(kind string) {
	c := m.outcomes[kind]
	if c == nil {
		c = m.reg.Counter(MetricJobs, "Job admissions and outcomes.", obs.L("outcome", kind))
		m.outcomes[kind] = c
	}
	c.Inc()
}

// outcomeCount reads back how many kind events outcome has counted.
func (m *schedMetrics) outcomeCount(kind string) int { return int(m.outcomes[kind].Value()) }

// tenantOccupancy publishes one tenant's active jobs and ranks.
func (m *schedMetrics) tenantOccupancy(tenant string, jobs, ranks int) {
	m.reg.Gauge(MetricTenantJobs, "Active jobs per tenant.", obs.L("tenant", tenant)).Set(float64(jobs))
	m.reg.Gauge(MetricTenantRanks, "Active ranks per tenant.", obs.L("tenant", tenant)).Set(float64(ranks))
}
