package core

// The speculation pipeline's policy layer. The state machine in core.go is
// fixed — broadcast, drain, assemble, compute, validate, repair, retire —
// while the three decisions the paper leaves open are behind narrow
// interfaces: what to predict (SpecPolicy), how to judge a prediction
// (CheckPolicy), and how to recover from a bad one (RepairPolicy). The
// default set reproduces the engine's seeded behavior byte-for-byte; custom
// policies plug in through Config.Spec/Check/Repair without touching the
// engine.

import "specomp/internal/predict"

// SpecPolicy decides what the engine predicts for a missing peer payload —
// the paper's speculation function (§3.1).
type SpecPolicy interface {
	// Speculate returns the predicted payload of peer `peer`, `steps`
	// iterations after hist[0]. hist holds the peer's actual snapshots
	// newest first and is only valid for the duration of the call. ops is
	// the operation cost charged to the speculation phase. A nil pred
	// declines to speculate: the engine blocks for the actual message
	// instead (ops is still charged).
	Speculate(peer int, hist [][]float64, steps int) (pred []float64, ops float64)
	// Recycle hands back a prediction the engine no longer references
	// (its iteration was validated and retired, or a cascade replaced it
	// with the arrived actual). Policies that draw
	// predictions from a buffer pool reclaim them here; others no-op.
	Recycle(pred []float64)
}

// EdgeSpecPolicy is an optional SpecPolicy extension for policies that
// differentiate by dependency edge: when the configured SpecPolicy also
// implements it, the engine calls SpeculateEdge instead of Speculate, with
// the edge it is predicting across (From = the peer being predicted, To =
// the local processor). Under a task DAG different edges carry different
// signals — a pipeline hop from a smooth source extrapolates well while a
// hop from a thresholding stage may not — and this is where a policy keys
// per-hop predictors or windows.
type EdgeSpecPolicy interface {
	SpeculateEdge(e Edge, hist [][]float64, steps int) (pred []float64, ops float64)
}

// EdgeCheckPolicy is the CheckPolicy analogue of EdgeSpecPolicy: CheckEdge
// replaces Check when implemented, receiving the dependency edge being
// validated so tolerances can vary per hop.
type EdgeCheckPolicy interface {
	CheckEdge(e Edge, predicted, actual, local []float64, iter int) CheckResult
}

// CheckPolicy judges a speculated payload against the actual message — the
// paper's error > threshold test. The default delegates to App.Check;
// replacements can change the metric or threshold per pair without touching
// the app.
type CheckPolicy interface {
	Check(peer int, predicted, actual, local []float64, iter int) CheckResult
}

// RepairContext is what a RepairPolicy sees when iteration Iter failed
// validation. All slices are engine-owned and only valid during the call.
// Dst, here and in CascadeContext, is the value plane's slot for
// X_j(Iter+1): a policy may compute into it and return it (nothing is then
// copied), or return any other slice, which the engine copies into it.
type RepairContext struct {
	Iter     int
	Node     int         // the local processor (the To of every bad edge)
	View     [][]float64 // global view with actuals patched over bad predictions
	Computed []float64   // the speculatively computed X_j(Iter+1)
	Local    []float64   // X_j(Iter)
	Preds    [][]float64 // predictions used at Iter (nil slot = actual used)
	BadPeers []int       // peers whose predictions failed the check
	Worst    CheckResult // accumulated Bad/Total over the failed peers
	Dst      []float64   // X_j(Iter+1)'s slot; aliases Computed
}

// CascadeContext is what a RepairPolicy sees for each iteration downstream
// of a repair whose inputs transitively changed.
type CascadeContext struct {
	Iter  int
	Node  int         // the local processor
	View  [][]float64 // iteration Iter's view with the repaired local entry and every in-edge whose actual has arrived since
	Worst CheckResult // the upstream repair's accumulated check result
	Dst   []float64   // X_j(Iter+1)'s slot
}

// RepairPolicy fixes the local computation after failed checks and sets the
// degradation budget — the paper's repair/recompute step (eq. 11) plus the
// overrun bound of graceful degradation.
type RepairPolicy interface {
	// Repair returns the corrected X_j(Iter+1) and the operation cost
	// charged to the correction phase.
	Repair(rc RepairContext) (fixed []float64, ops float64)
	// Cascade recomputes X_j(Iter+1) for an iteration downstream of a
	// repair, returning the redone values and their operation cost.
	Cascade(cc CascadeContext) (redo []float64, ops float64)
	// OverrunBudget is how many iterations validation may lag past the
	// forward window before the engine blocks hard; peerDown reports that a
	// needed peer is currently inside a crash window, which the default
	// stretches by MaxCrashOverrun to bridge the outage on speculation.
	OverrunBudget(peerDown bool) int
}

// defaultSpec is the stock speculation policy: the app's Speculator when it
// has one, otherwise Config.Predictor — in place through a pooled buffer
// when the predictor supports it, so steady-state speculation allocates
// nothing.
type defaultSpec struct {
	app  Speculator // non-nil wins
	pred predict.Predictor
	inp  predict.InPlace // non-nil when pred supports in-place prediction
	pool *bufPool
}

func (d *defaultSpec) Speculate(peer int, hist [][]float64, steps int) ([]float64, float64) {
	if d.app != nil {
		return d.app.Speculate(peer, hist, steps)
	}
	var pred []float64
	if d.inp != nil {
		dst := d.pool.get(len(hist[0]))
		pred = d.inp.PredictInto(dst, hist, steps)
		if !sameSlice(pred, dst) {
			d.pool.put(dst)
		}
	} else {
		pred = d.pred.Predict(hist, steps)
	}
	return pred, d.pred.Ops() * float64(len(pred)) * float64(steps)
}

func (d *defaultSpec) Recycle(pred []float64) {
	if d.app == nil && d.inp != nil {
		d.pool.put(pred)
	}
}

func sameSlice(a, b []float64) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// defaultCheck delegates to the app's error check unchanged.
type defaultCheck struct{ app App }

func (d defaultCheck) Check(peer int, predicted, actual, local []float64, iter int) CheckResult {
	return d.app.Check(peer, predicted, actual, local, iter)
}

// defaultRepair applies the app's Corrector when it has one (folding it
// over every failed peer), otherwise recomputes from the patched view into
// Dst; cascades always recompute. The overrun budget is MaxOverrun,
// stretched by MaxCrashOverrun while a needed peer is down.
type defaultRepair struct {
	app             App
	into            ComputerInto // nil unless app implements it
	corr            Corrector    // nil unless app implements it
	maxOverrun      int
	maxCrashOverrun int
}

func (d *defaultRepair) Repair(rc RepairContext) ([]float64, float64) {
	ops := d.app.RepairOps(rc.Worst)
	if d.corr != nil {
		fixed := rc.Computed
		for _, k := range rc.BadPeers {
			fixed = d.corr.Correct(fixed, rc.Local, k, rc.Preds[k], rc.View[k], rc.Iter)
		}
		return fixed, ops
	}
	return compute(d.app, d.into, rc.Dst, rc.View, rc.Iter), ops
}

func (d *defaultRepair) Cascade(cc CascadeContext) ([]float64, float64) {
	return compute(d.app, d.into, cc.Dst, cc.View, cc.Iter), d.app.RepairOps(cc.Worst)
}

// compute evaluates X_j(t+1) into dst, the plane's slot, or — for an app
// without ComputerInto — returns Compute's result for the engine to copy.
func compute(app App, into ComputerInto, dst []float64, view [][]float64, t int) []float64 {
	if into == nil {
		return app.Compute(view, t)
	}
	into.ComputeInto(dst, view, t)
	return dst
}

func (d *defaultRepair) OverrunBudget(peerDown bool) int {
	b := d.maxOverrun
	if peerDown {
		b += d.maxCrashOverrun
	}
	return b
}
