package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"specomp/internal/distnet"
	"specomp/internal/obs"
	"specomp/internal/perfmodel"
	"specomp/internal/sched"
)

// options are the settings of one invocation.
type options struct {
	seed    int64
	seconds float64 // measuring budget per workload per pass
	reps    int     // > 0: a fixed number of measured units instead of the budget
	short   bool
	outDir  string // traces and scratch directories live here
}

// The fewest measured units a budgeted untraced pass settles for, and the
// fewest untraced+traced pairs a traced pass does.
const (
	minReps  = 5
	minPairs = 2
)

// passResult is one workload's outcome of one pass.
type passResult struct {
	Name      string           `json:"name"`
	Why       string           `json:"why"`
	Traced    bool             `json:"traced"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Samples   int              `json:"samples"`
	Failures  []string         `json:"failures,omitempty"`
	Metrics   map[string]value `json:"metrics"`
	// UnitWalls are the wall times behind tts_s, in run order.
	UnitWalls []float64 `json:"unit_walls_s,omitempty"`
	// Tail is the highest percentile of tts with ten samples beyond it, when
	// the pass has the samples for one (in practice only svc-jobs).
	Tail *tailValue `json:"tts_tail,omitempty"`

	spans []span
}

type tailValue struct {
	Percentile float64 `json:"percentile"`
	Seconds    float64 `json:"value_s"`
}

// driver runs one workload's units of either kind on the workload's
// substrate, numbering them as it goes.
type driver struct {
	w    workload
	opts options
	ref  *reference
	sp   *spanRec
	svc  *service
	next int
	res  *passResult
}

func newDriver(w workload, opts options, sp *spanRec, traced bool) (*driver, error) {
	ref, err := newReference(w, opts.seed)
	if err != nil {
		return nil, err
	}
	d := &driver{w: w, opts: opts, ref: ref, sp: sp, res: &passResult{Name: w.name, Why: w.why, Traced: traced}}
	if w.on == onSched {
		if d.svc, err = startService(w, filepath.Join(opts.outDir, "tmp")); err != nil {
			return nil, err
		}
	}
	return d, nil
}

func (d *driver) close() {
	if d.svc != nil {
		d.svc.stop()
	}
}

// unit runs one unit with forward window fw, counting it and its failure.
// Only traced units record spans.
func (d *driver) unit(traced bool, fw int) unit {
	id := d.next
	d.next++
	var sp *spanRec
	if traced {
		sp = d.sp
	}
	runtime.GC()
	var u unit
	switch d.w.on {
	case onDistnet:
		spec := d.w.spec
		spec.FW = fw
		u = runFleet(d.w, spec, d.opts.seed, traced, d.ref, sp, id)
	case onRealtime:
		u = runNBody(d.w, fw, d.opts.seed, traced, d.ref, sp, id)
	case onSched:
		u = d.svc.runJob(d.w, d.opts.seed, traced, d.ref, sp, id)
	}
	d.res.Attempted++
	if u.err != nil {
		d.res.Failed++
		d.res.Failures = append(d.res.Failures, fmt.Sprintf("unit %d: %v", id, u.err))
	}
	return u
}

// warmUp runs the workload's discarded units, reporting false if one hung.
// They are not samples, but a failed one still shows in the counts.
func (d *driver) warmUp() bool {
	for i := 0; i < d.w.warmup; i++ {
		if u := d.unit(false, d.w.spec.FW); u.hung {
			return false
		}
	}
	d.res.Attempted = d.res.Failed
	return true
}

// measure runs units until the budget is spent (at least atLeast), or exactly
// opts.reps of them, and returns the ones that verified. A hung unit
// ends the pass: goroutines it left behind would share the next unit's cores.
func (d *driver) measure(budget float64, atLeast int, run func() unit) []unit {
	var good []unit
	start := time.Now()
	lastCost := 0.0
	for n := 0; ; n++ {
		if d.opts.reps > 0 {
			if n >= d.opts.reps {
				break
			}
		} else if n >= atLeast && time.Since(start).Seconds()+lastCost > budget {
			break
		}
		t0 := time.Now()
		u := run()
		lastCost = time.Since(t0).Seconds()
		if u.hung {
			break
		}
		if u.err == nil {
			good = append(good, u)
		}
	}
	return good
}

func column(units []unit, f func(*unit) float64) []float64 {
	out := make([]float64, len(units))
	for i := range units {
		out[i] = f(&units[i])
	}
	return out
}

func walls(units []unit) []float64 { return column(units, func(u *unit) float64 { return u.wall }) }

// runUntraced is the end-to-end pass: warm-up, then measured units with
// tracing, metrics pushes and registries off.
func runUntraced(w workload, opts options) (*passResult, error) {
	d, err := newDriver(w, opts, nil, false)
	if err != nil {
		return nil, err
	}
	defer d.close()
	if !d.warmUp() {
		return d.res, nil
	}
	units := d.measure(opts.seconds, minReps, func() unit { return d.unit(false, w.spec.FW) })

	m := newMetricSet(endToEnd)
	m.set("tts_s", median(walls(units)))
	m.set("setup_s", median(column(units, func(u *unit) float64 { return u.setup })))
	m.set("alloc_mb", median(column(units, func(u *unit) float64 { return u.allocMB })))
	d.res.Metrics = m.export()
	d.res.Samples = len(units)
	d.res.UnitWalls = walls(units)
	if p, ok := tailPercentile(len(units)); ok {
		d.res.Tail = &tailValue{Percentile: p, Seconds: quantile(walls(units), p/100)}
	}
	return d.res, nil
}

// runTraced is the per-layer pass. It alternates untraced and traced units
// (so the tracing overhead is a like-for-like difference inside one process),
// runs the twins, then the timed layer blocks.
func runTraced(w workload, opts options) (*passResult, error) {
	sp := newSpanRec()
	d, err := newDriver(w, opts, sp, true)
	if err != nil {
		return nil, err
	}
	defer d.close()
	if !d.warmUp() {
		return d.res, nil
	}

	var plain, traced []unit
	pairs := d.measure(0.6*opts.seconds, minPairs, func() unit {
		u := d.unit(false, w.spec.FW)
		if u.err != nil {
			return u
		}
		t := d.unit(true, w.spec.FW)
		if t.err == nil {
			plain, traced = append(plain, u), append(traced, t)
		}
		return t
	})
	d.res.Samples = len(pairs)
	m := newMetricSet(perLayer)
	d.res.Metrics = m.export()
	if len(pairs) == 0 {
		return d.res, nil
	}

	// Twins: the same spec without sockets, and the same spec without
	// speculation. Neither is verified again as a workload unit would be.
	var twin, blocking *unit
	if w.on == onDistnet {
		u := runTwin(w, opts.seed, sp, d.next)
		d.next++
		if u.err != nil {
			return nil, fmt.Errorf("%s realtime twin: %w", w.name, u.err)
		}
		twin = &u
	}
	if w.spec.FW > 0 && w.on != onSched {
		u := d.unit(false, 0)
		if u.err == nil {
			blocking = &u
		}
	}

	budget := blockBudget
	if opts.short {
		budget /= 10
	}
	lt, err := timeLayers(w, opts.seed, filepath.Join(opts.outDir, "tmp"), budget, sp)
	if err != nil {
		return nil, err
	}
	fillLayers(m, w, plain, traced, twin, blocking, lt)
	if d.svc != nil {
		fillSched(m, d.svc.sched, plain)
	}
	d.res.Metrics = m.export()
	d.res.spans = sp.finish()
	return d.res, nil
}

// rankSum totals one per-rank count over a unit.
func rankSum(u *unit, f func(rankStats) float64) float64 {
	t := 0.0
	for _, r := range u.ranks {
		t += f(r)
	}
	return t
}

// fillLayers turns the traced pass's raw material into the per-layer table.
// Counts the program returns on every run come from the untraced units;
// journals and registries come from the traced ones.
func fillLayers(m *metricSet, w workload, plain, traced []unit, twin, blocking *unit, lt layerTimes) {
	tts := median(walls(plain))
	procs := float64(w.spec.Procs)
	perUnit := func(f func(rankStats) float64) float64 {
		return median(column(plain, func(u *unit) float64 { return rankSum(u, f) }))
	}
	perRank := func(f func(rankStats) float64) float64 { return perUnit(f) / procs }

	// apps
	computeCalls := perRank(func(r rankStats) float64 { return float64(r.iters + r.repairs + r.cascades) })
	computeSec := computeCalls * lt.compute
	m.set("apps.compute_us", lt.compute*1e6)
	m.set("apps.compute_allocs", lt.computeAllocs)
	m.set("apps.compute_bytes", lt.computeBytes)
	m.set("apps.check_us", lt.check*1e6)
	m.set("apps.compute_share", ratio(computeSec, tts))

	// core
	made := perUnit(func(r rankStats) float64 { return float64(r.specsMade) })
	checked := perUnit(func(r rankStats) float64 { return float64(r.specsChecked) })
	bad := perUnit(func(r rankStats) float64 { return float64(r.specsBad) })
	blocked := perRank(func(r rankStats) float64 { return r.blockedSec })
	iters := perRank(func(r rankStats) float64 { return float64(r.iters) })
	m.set("core.iter_us", lt.engineIter*1e6)
	m.set("core.iter_allocs", lt.engineAllocs)
	m.set("core.specs_made", made)
	m.set("core.specs_bad", bad)
	if checked > 0 {
		m.set("core.spec_hit_ratio", 1-bad/checked)
	}
	m.set("core.repairs", perUnit(func(r rankStats) float64 { return float64(r.repairs) }))
	m.set("core.cascade_redos", perUnit(func(r rankStats) float64 { return float64(r.cascades) }))
	m.set("core.blocked_s", blocked)
	blockedShare := ratio(blocked, perRank(func(r rankStats) float64 { return r.runSec }))
	m.set("core.blocked_share", blockedShare)
	gaps := iterGaps(traced[len(traced)-1])
	m.set("core.iter_p50_ms", quantile(gaps, 0.5)*1e3)
	m.set("core.iter_p99_ms", quantile(gaps, 0.99)*1e3)
	if blocking != nil {
		m.set("core.speedup_vs_block", ratio(blocking.wall, tts))
	}

	m.set("predict.predict_ns", lt.predict*1e9)

	// perfmodel: the section-4 model fed the measured compute time and L,
	// against the measured per-iteration time. Capacities of 1 op/s make
	// FComp the seconds one variable costs.
	if iters > 0 {
		n := int(procs) * 1000
		caps := make([]float64, w.spec.Procs)
		for i := range caps {
			caps[i] = 1
		}
		model := perfmodel.Params{
			N: n, FComp: lt.compute * procs / float64(n), Caps: caps, K: ratio(bad, checked),
			TComm: func(int) float64 { return w.latency.Seconds() },
		}
		predicted := model.NoSpecTime(w.spec.Procs)
		if w.spec.FW > 0 {
			predicted = model.SpecTimeFW(w.spec.Procs, w.spec.FW)
		}
		measured := perRank(func(r rankStats) float64 { return r.runSec }) / iters
		m.set("perfmodel.pred_ratio", ratio(measured, predicted))
	}

	// distnet
	msgs := perUnit(func(r rankStats) float64 { return float64(r.msgsSent) })
	recvd := perUnit(func(r rankStats) float64 { return float64(r.msgsRecvd) })
	frames := perUnit(func(r rankStats) float64 { return float64(r.frames) })
	m.set("distnet.msgs", msgs)
	m.set("distnet.frames", frames)
	m.set("distnet.msgs_per_frame", ratio(msgs, frames))
	m.set("distnet.bytes", perUnit(func(r rankStats) float64 { return float64(r.bytes) }))
	m.set("distnet.msg_rate", ratio(msgs, tts))
	m.set("distnet.allocs_per_msg", ratio(median(column(plain, func(u *unit) float64 { return u.mallocs })), recvd))
	m.set("distnet.encode_ns", lt.encode*1e9)
	m.set("distnet.decode_ns", lt.decode*1e9)
	m.set("distnet.batch_encode_ns", lt.batchEncode*1e9)
	m.set("distnet.rtt_us", lt.rtt*1e6)
	if w.on != onRealtime {
		p50 := median(column(plain, func(u *unit) float64 {
			return median(rankColumn(u, func(r rankStats) float64 { return r.latP50 }))
		}))
		p99 := median(column(plain, func(u *unit) float64 {
			return maxOf(rankColumn(u, func(r rankStats) float64 { return r.latP99 }))
		}))
		m.set("distnet.deliver_p50_ms", p50*1e3)
		m.set("distnet.deliver_p99_ms", p99*1e3)
		m.set("distnet.inject_excess_ms", (p50-w.latency.Seconds())*1e3)
	}
	if fleet := traced[len(traced)-1].fleet; fleet != nil {
		flushes := flushCounts(fleet)
		m.set("distnet.flush_recv", flushes["recv"])
		m.set("distnet.flush_linger", flushes["linger"])
		m.set("distnet.flush_size", flushes["msgs"]+flushes["bytes"])
	}

	// realtime: the twin on distnet workloads, the workload itself on
	// nbody-misspec.
	switch {
	case twin != nil:
		m.set("distnet.socket_tax", ratio(tts, twin.wall))
		m.set("realtime.tts_s", twin.wall)
		m.set("realtime.blocked_share", ratio(rankSum(twin, func(r rankStats) float64 { return r.blockedSec }),
			rankSum(twin, func(r rankStats) float64 { return r.runSec })))
	case w.on == onRealtime:
		m.set("realtime.tts_s", tts)
		m.set("realtime.blocked_share", blockedShare)
	}

	m.set("faults.plan_ns", lt.plan*1e9)
	m.set("checkpoint.snapshot_bytes", lt.snapshotBytes)
	m.set("checkpoint.encode_us", lt.ckptEncode*1e6)
	m.set("checkpoint.save_us", lt.ckptSave*1e6)
	m.set("checkpoint.load_us", lt.ckptLoad*1e6)

	// obs
	m.set("obs.trace_overhead_pct", (ratio(median(walls(traced)), tts)-1)*100)
	events := 0
	for _, r := range traced[len(traced)-1].ranks {
		events += len(r.journal)
	}
	m.set("obs.journal_events", float64(events))

	// run
	cpu := median(column(plain, func(u *unit) float64 { return u.cpuSec }))
	m.set("run.cpu_s", cpu)
	m.set("run.cpu_util", ratio(cpu, tts*float64(runtime.NumCPU())))
	m.set("run.gc_cycles", median(column(plain, func(u *unit) float64 { return u.gcCycles })))
	m.set("run.gc_pause_ms", median(column(plain, func(u *unit) float64 { return u.gcPauseMS })))
	m.set("run.peak_rss_mb", peakRSSMB())
	m.set("run.sol_err", maxOf(column(plain, func(u *unit) float64 { return u.solErr })))
	m.set("run.samples", float64(len(plain)))

	// What the named layers account for, from one rank's point of view: set-up,
	// then per iteration the app kernel, the engine's own bookkeeping,
	// speculation and checking, and the time blocked in receives (which is
	// where the wire, the injected latency and waiting for peers show).
	setup := median(column(plain, func(u *unit) float64 { return u.setup }))
	named := setup + computeSec + iters*lt.engineIter + blocked +
		(made*lt.predict+checked*lt.check)/procs
	m.set("run.unattributed_share", 1-ratio(named, tts))
}

func rankColumn(u *unit, f func(rankStats) float64) []float64 {
	out := make([]float64, len(u.ranks))
	for i, r := range u.ranks {
		out[i] = f(r)
	}
	return out
}

// iterGaps returns the intervals between consecutive iter_start events of
// each rank's journal, pooled over the ranks.
func iterGaps(u unit) []float64 {
	var gaps []float64
	for _, r := range u.ranks {
		last := -1.0
		for _, e := range r.journal {
			if e.Kind != obs.EvIterStart {
				continue
			}
			if last >= 0 {
				gaps = append(gaps, e.T-last)
			}
			last = e.T
		}
	}
	return gaps
}

// flushCounts reads the fleet's batch-flush counter by reason label.
func flushCounts(fleet *distnet.FleetObs) map[string]float64 {
	out := make(map[string]float64)
	fams, err := fleet.Families()
	if err != nil {
		return out
	}
	for _, fam := range fams {
		if fam.Name != distnet.MetricFlushes {
			continue
		}
		for _, s := range fam.Samples {
			for _, l := range s.LabelPairs {
				if l.Key == "reason" {
					out[l.Value] += s.Value
				}
			}
		}
	}
	return out
}

// fillSched reports the job timeline of svc-jobs. The five phases partition
// each job's window, so their medians sum to about the median tts.
func fillSched(m *metricSet, s *sched.Scheduler, jobs []unit) {
	var submit, wait, launch, run, finish []float64
	for i := range jobs {
		a, b, c, d, e := jobs[i].job.phases()
		submit, wait, launch, run, finish = append(submit, a), append(wait, b), append(launch, c), append(run, d), append(finish, e)
	}
	m.set("sched.submit_us", median(submit)*1e6)
	m.set("sched.wait_ms", median(wait)*1e3)
	m.set("sched.launch_ms", median(launch)*1e3)
	m.set("sched.run_ms", median(run)*1e3)
	m.set("sched.finish_ms", median(finish)*1e3)
	m.set("sched.tts_p75_ms", quantile(walls(jobs), 0.75)*1e3)
	m.set("sched.jobs_per_s", ratio(1, median(walls(jobs)))) // closed loop, one client
	m.set("sched.preemptions", float64(s.Stats().Preemptions))
	named := median(submit) + median(wait) + median(launch) + median(run) + median(finish)
	m.set("run.unattributed_share", 1-ratio(named, median(walls(jobs))))

}

// sortedNames returns the keys of a metric map in order, for stable output.
func sortedNames(m map[string]value) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
