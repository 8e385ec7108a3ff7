package core

import (
	"strconv"

	"specomp/internal/obs"
)

// Engine metric names (Prometheus families; every series carries a proc
// label). Exported so endpoint consumers and tests agree on the schema.
const (
	MetricIterations  = "specomp_iterations_total"
	MetricSpecsMade   = "specomp_specs_made_total"
	MetricSpecsCheck  = "specomp_specs_checked_total"
	MetricSpecsBad    = "specomp_specs_bad_total"
	MetricSpecsSuper  = "specomp_specs_superseded_total"
	MetricRepairs     = "specomp_repairs_total"
	MetricCascades    = "specomp_cascade_redos_total"
	MetricOverruns    = "specomp_overruns_total"
	MetricReconciles  = "specomp_reconciles_total"
	MetricIteration   = "specomp_iteration" // gauge: iteration currently computing
	MetricPredError   = "specomp_prediction_error"
	MetricRepairDepth = "specomp_repair_depth"

	MetricCheckpoints     = "specomp_checkpoints_total"
	MetricCheckpointBytes = "specomp_checkpoint_bytes_total"
	MetricCheckpointSec   = "specomp_engine_checkpoint_seconds"
	MetricRestores        = "specomp_restores_total"
	MetricCatchupIters    = "specomp_catchup_iters_total"
	MetricPostCrashErr    = "specomp_post_crash_prediction_error"
)

// engineObs bundles one processor's observability handles. A nil *engineObs
// means observability is off; every method no-ops, so the engine's hot path
// pays a single nil check per site.
type engineObs struct {
	p       Transport
	journal *obs.Journal

	iters      *obs.Counter
	specsMade  *obs.Counter
	specsCheck *obs.Counter
	specsBad   *obs.Counter
	specsSuper *obs.Counter
	repairs    *obs.Counter
	cascades   *obs.Counter
	overruns   *obs.Counter
	reconciles *obs.Counter
	iterGauge  *obs.Gauge

	checkpoints  *obs.Counter
	ckptBytes    *obs.Counter
	restores     *obs.Counter
	catchupIters *obs.Counter

	predErr     *obs.Histogram
	repairDepth *obs.Histogram
	postCrash   *obs.Histogram
	ckptSec     *obs.Histogram
}

// RegisterEngineMetrics pre-registers the engine's counter families for
// processor proc so a metrics endpoint exposes them (at zero) before the
// first event. Nil-safe.
func RegisterEngineMetrics(reg *obs.Registry, proc int) {
	newEngineObs(reg, nil, proc)
}

// newEngineObs creates the per-processor handles, or returns nil when both
// sinks are off.
func newEngineObs(reg *obs.Registry, journal *obs.Journal, proc int) *engineObs {
	if reg == nil && journal == nil {
		return nil
	}
	lp := obs.L("proc", strconv.Itoa(proc))
	return &engineObs{
		journal:    journal,
		iters:      reg.Counter(MetricIterations, "iterations computed", lp),
		specsMade:  reg.Counter(MetricSpecsMade, "peer-iteration predictions performed", lp),
		specsCheck: reg.Counter(MetricSpecsCheck, "predictions validated against actual messages", lp),
		specsBad:   reg.Counter(MetricSpecsBad, "validations that exceeded tolerance", lp),
		specsSuper: reg.Counter(MetricSpecsSuper, "predictions a cascade replaced with the arrived actual, unchecked", lp),
		repairs:    reg.Counter(MetricRepairs, "iterations repaired after a failed check", lp),
		cascades:   reg.Counter(MetricCascades, "later iterations recomputed due to an upstream repair", lp),
		overruns:   reg.Counter(MetricOverruns, "validations deferred past a Deadline expiry", lp),
		reconciles: reg.Counter(MetricReconciles, "overrun iterations later validated", lp),
		iterGauge:  reg.Gauge(MetricIteration, "iteration currently being computed", lp),
		predErr: reg.Histogram(MetricPredError, "unit-bad fraction per validated prediction",
			[]float64{0, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1}, lp),
		repairDepth: reg.Histogram(MetricRepairDepth, "cascade length per repair (iterations recomputed)",
			[]float64{0, 1, 2, 4, 8, 16}, lp),
		checkpoints:  reg.Counter(MetricCheckpoints, "engine state snapshots persisted", lp),
		ckptBytes:    reg.Counter(MetricCheckpointBytes, "encoded snapshot bytes written", lp),
		restores:     reg.Counter(MetricRestores, "post-crash state restorations", lp),
		catchupIters: reg.Counter(MetricCatchupIters, "iterations replayed to re-reach the surviving frontier", lp),
		postCrash: reg.Histogram(MetricPostCrashErr, "unit-bad fraction of validations shortly after a peer rejoins",
			[]float64{0, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1}, lp),
		ckptSec: reg.Histogram(MetricCheckpointSec, "transport time one checkpoint took the engine (snapshot, encode, Save)",
			[]float64{1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 0.1, 1}, lp),
	}
}

// clock reads the transport's time for an instrument that measures a span
// (0 when observability is off: its reader is then a no-op too).
func (o *engineObs) clock() float64 {
	if o == nil {
		return 0
	}
	return o.p.Now()
}

// event journals a record stamped with the transport's current time.
func (o *engineObs) event(kind string, iter, peer int, v float64) {
	if o.journal == nil {
		return
	}
	o.journal.Record(obs.Event{
		T: o.p.Now(), Proc: o.p.ID(), Kind: kind, Iter: iter, Peer: peer, V: v,
	})
}

func (o *engineObs) iterStart(t int) {
	if o == nil {
		return
	}
	o.iterGauge.Set(float64(t))
	o.event(obs.EvIterStart, t, obs.NoPeer, 0)
}

func (o *engineObs) iterEnd(t int) {
	if o == nil {
		return
	}
	o.iters.Inc()
	o.event(obs.EvIterEnd, t, obs.NoPeer, 0)
}

func (o *engineObs) specMade(t, peer int) {
	if o == nil {
		return
	}
	o.specsMade.Inc()
	o.event(obs.EvSpecMade, t, peer, 0)
}

// specChecked records a validation outcome; frac is the unit-bad fraction.
func (o *engineObs) specChecked(t, peer int, frac float64, bad bool) {
	if o == nil {
		return
	}
	o.specsCheck.Inc()
	o.predErr.Observe(frac)
	o.event(obs.EvSpecChecked, t, peer, frac)
	if bad {
		o.specsBad.Inc()
		o.event(obs.EvSpecBad, t, peer, frac)
	}
}

// specSuperseded: a cascade replaced peer's prediction at s with the arrived actual.
func (o *engineObs) specSuperseded(s, peer int) {
	if o == nil {
		return
	}
	o.specsSuper.Inc()
	o.event(obs.EvSpecSuperseded, s, peer, 0)
}

// repaired records a repair of iteration t that cascaded through depth
// further iterations.
func (o *engineObs) repaired(t, depth int) {
	if o == nil {
		return
	}
	o.repairs.Inc()
	o.repairDepth.Observe(float64(depth))
	o.event(obs.EvRepair, t, obs.NoPeer, float64(depth))
}

func (o *engineObs) cascaded(s int) {
	if o == nil {
		return
	}
	o.cascades.Inc()
	o.event(obs.EvCascade, s, obs.NoPeer, 0)
}

func (o *engineObs) overrun(s int) {
	if o == nil {
		return
	}
	o.overruns.Inc()
	o.event(obs.EvOverrun, s, obs.NoPeer, 0)
}

func (o *engineObs) reconciled(s int) {
	if o == nil {
		return
	}
	o.reconciles.Inc()
	o.event(obs.EvReconcile, s, obs.NoPeer, 0)
}

func (o *engineObs) converged(s int) {
	if o == nil {
		return
	}
	o.event(obs.EvConverged, s, obs.NoPeer, 0)
}

// checkpointed records one persisted snapshot of `bytes` encoded bytes,
// taken with `validated` as the highest fully validated iteration, whose
// takeCheckpoint began at transport time `began` (see clock): wall clock on
// the live transports, the modelled checkpoint charge on the simulator.
func (o *engineObs) checkpointed(validated, bytes int, began float64) {
	if o == nil {
		return
	}
	o.checkpoints.Inc()
	o.ckptBytes.Add(float64(bytes))
	o.ckptSec.Observe(o.p.Now() - began)
	o.event(obs.EvCheckpoint, validated, obs.NoPeer, float64(bytes))
}

func (o *engineObs) restored(validated int) {
	if o == nil {
		return
	}
	o.restores.Inc()
	o.event(obs.EvRestore, validated, obs.NoPeer, 0)
}

// rejoinServed records that this processor answered peer's rejoin/refill
// request covering iterations above have.
func (o *engineObs) rejoinServed(peer, have int) {
	if o == nil {
		return
	}
	o.event(obs.EvRejoin, have, peer, 0)
}

// catchup records that the post-restore replay re-reached the surviving
// frontier at iteration t after replaying n iterations.
func (o *engineObs) catchup(t, n int) {
	if o == nil {
		return
	}
	o.catchupIters.Add(float64(n))
	o.event(obs.EvCatchup, t, obs.NoPeer, float64(n))
}

// catchupGap records that peer's re-send log could not cover the outage;
// oldest is the first iteration it can still supply.
func (o *engineObs) catchupGap(peer, oldest int) {
	if o == nil {
		return
	}
	o.event(obs.EvCatchupGap, obs.NoPeer, peer, float64(oldest))
}

func (o *engineObs) postCrashErr(frac float64) {
	if o == nil {
		return
	}
	o.postCrash.Observe(frac)
}
