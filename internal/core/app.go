package core

// The application contract: what a synchronous iterative algorithm must
// provide to run under the speculative engine, plus the optional extensions
// an app may implement: publishing, computing into the engine's slot,
// incremental correction, convergence stopping, domain-specific speculation,
// and (graph.go) a dependency graph. Each of the paper's three open decisions
// has one extension point here: speculation is Speculator (else
// Config.Predictor), the check is App.Check, repair is Corrector (else a
// recompute).

// CheckResult reports the outcome of validating one speculated message.
type CheckResult struct {
	Bad   int     // check units out of tolerance
	Total int     // check units examined
	Ops   float64 // operation cost of performing the check (charged to the clock)
}

// App is one processor's view of a synchronous iterative application.
//
// Result ownership: the engine lends a ComputerInto app its own slot for
// X_j(t+1). Otherwise the slice returned by Compute, Publisher.Publish or
// Corrector.Correct belongs to the app. It stays valid through the app's
// next call of the same method and may be overwritten by the one after, so
// an app can serve results from a two-buffer ping-pong pair (ResultBuf) and
// allocate nothing in steady state. A caller may therefore pass a result
// straight back as an input of the very next call — the engine's repair
// folds Correct over its own result — but must copy whatever it keeps
// longer, as the value plane does.
// Results are a pure function of the arguments in value, never in buffer
// identity. InitLocal's result is the exception: the caller keeps it, so it
// is freshly allocated.
type App interface {
	// InitLocal returns the processor's initial partition values X_j(0),
	// freshly allocated.
	InitLocal() []float64
	// Compute evaluates X_j(t+1) from the global view of iteration t.
	// view[k] holds partition k's values (actual or speculated);
	// view[j] is the local partition. Compute must not retain or modify
	// view; the result follows the ownership rule above.
	Compute(view [][]float64, t int) []float64
	// ComputeOps is the operation count of one Compute call
	// (the paper's N_i·f_comp).
	ComputeOps() float64
	// Check compares a speculated snapshot of peer k's partition against the
	// actual one, judging whether computations based on the prediction are
	// acceptable (the paper's error > threshold test). local is the local
	// partition at iteration t, needed by error metrics that relate the
	// speculation error to local state (e.g. eq. 11's particle distances).
	Check(peer int, predicted, actual, local []float64, t int) CheckResult
	// RepairOps is the operation cost of repairing the local computation
	// after a failed check (the paper's k·N_i·f_comp recomputation charge,
	// or a cheaper incremental correction).
	RepairOps(r CheckResult) float64
}

// Publisher is an optional App extension: instead of broadcasting the whole
// local partition every iteration, the engine broadcasts Publish(local) —
// e.g. a stencil code publishes only its edge rows. Peers' view entries,
// speculation, and error checking then all operate on the published form,
// which shrinks both message sizes and speculation/checking overhead. The
// local entry view[j] always stays the full partition. The result follows
// App's ownership rule (valid through the next Publish call); it may also
// alias local.
type Publisher interface {
	Publish(local []float64) []float64
}

// ComputerInto is an optional App extension: the engine lends the value
// plane's slot for X_j(t+1) and the app computes Compute's values into it,
// so nothing is copied. dst has len(view[j]), aliases no view entry and
// arrives with unspecified contents: ComputeInto writes every element and
// reads none it has not written.
type ComputerInto interface {
	ComputeInto(dst []float64, view [][]float64, t int)
}

// Corrector is an optional App extension implementing the paper's
// "correction function": instead of recomputing X_j(t+1) from scratch when
// a speculation fails its check, the app patches the already-computed local
// values incrementally given the prediction that was used and the actual
// message (e.g. N-body subtracts the speculated pair forces and adds the
// actual ones). Correct must return values identical to recomputing with
// the corrected view; the engine still charges RepairOps. The engine folds
// Correct over every failed peer, passing each result back as the next
// call's computed — which App's ownership rule (valid through the next
// Correct call) makes safe. Correct must not modify its arguments.
type Corrector interface {
	// Correct returns the fixed X_j(t+1). computed is the speculatively
	// computed local result; local is X_j(t); pred and act are peer k's
	// speculated and actual iteration-t payloads.
	Correct(computed, local []float64, peer int, pred, act []float64, t int) []float64
}

// Stopper is an optional App extension for convergence-based termination.
// After iteration t is fully validated, Done is evaluated on the *actual*
// exchanged snapshots of iteration t — every processor holds the identical
// set (each peer's broadcast payload plus its own), so all processors reach
// the same decision deterministically and stop at the same logical
// iteration, without any extra synchronization round.
type Stopper interface {
	// Done reports whether the computation has converged. actualView[k] is
	// processor k's iteration-t broadcast payload (the published form when
	// the app is a Publisher, including the caller's own entry). The slice
	// is reused between calls; Done must not retain it.
	Done(actualView [][]float64, t int) bool
	// DoneOps is the operation cost charged per evaluation.
	DoneOps() float64
}

// Speculator is an optional App extension for domain-specific speculation
// (e.g. the N-body velocity extrapolation of eq. 10). hist holds the actual
// snapshots of the peer's partition, newest first, and is only valid for
// the duration of the call; steps is how many iterations past hist[0] to
// extrapolate. SpeculateInto writes the prediction into dst — a buffer of
// len(hist[0]) from the engine's pool, with unspecified contents, aliasing
// nothing in hist — and returns the operation cost charged to the clock.
// The engine speculates through SpeculateInto when the App implements it,
// falling back to Config.Predictor otherwise.
type Speculator interface {
	SpeculateInto(dst []float64, peer int, hist [][]float64, steps int) (ops float64)
}

// ResultBuf is the ping-pong buffer pair behind App's result-ownership
// rule: Next hands out the half the previous call did not, so a result
// survives exactly one further call. The zero value is ready to use.
type ResultBuf struct {
	buf [2][]float64
	cur int
}

// Next returns the length-n buffer for the coming result. Contents are
// unspecified; the caller must overwrite every element. Both halves are
// (re)allocated together when n changes.
func (r *ResultBuf) Next(n int) []float64 {
	if len(r.buf[0]) != n || r.buf[0] == nil {
		b := make([]float64, 2*n)
		r.buf = [2][]float64{b[:n:n], b[n:]}
	}
	r.cur ^= 1
	return r.buf[r.cur]
}

// Compute returns into.ComputeInto's X_j(t+1), j = self, in the next half.
func (r *ResultBuf) Compute(into ComputerInto, view [][]float64, self, t int) []float64 {
	out := r.Next(len(view[self]))
	into.ComputeInto(out, view, t)
	return out
}
