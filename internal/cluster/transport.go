package cluster

// Transport is the full processor-facing contract an execution substrate
// offers the engine: identity, clocks, work charging, point-to-point and
// zero-copy sends, and the three receive flavours (non-blocking, blocking,
// deadline-bounded). Three backends implement it:
//
//   - *cluster.Proc — the deterministic simulated cluster (virtual time)
//   - realtime      — goroutines and channels (wall clock, one process)
//   - distnet       — OS processes over TCP sockets (wall clock, many
//     processes)
//
// core.Transport is the engine's minimal subset of this contract (it treats
// SendShared and RecvDeadline as optional capability upgrades); any
// cluster.Transport therefore runs the engine with every capability
// enabled. Each backend carries a compile-time assertion against this
// interface so the contract cannot drift silently.
//
// A transport may coalesce several sent messages into one physical frame
// (distnet batches per-iteration sends to the same peer), provided
// per-(src, dst) delivery order is preserved. To that end a transport may
// defer a Send until the caller next polls empty, blocks in a receive, or
// returns — never past that: what the caller does next may be a long
// compute, and a peer may be waiting on exactly that message. Senders and
// receivers observe ordinary message semantics either way; batching is
// invisible above the Transport contract.
type Transport interface {
	// ID returns the processor index (0-based).
	ID() int
	// P returns the number of processors in the run.
	P() int
	// Now returns the substrate's clock in seconds (virtual or wall).
	Now() float64
	// Compute charges ops operations of work to the clock under phase ph.
	// Wall-clock substrates make this a no-op: the work already happened
	// inside the app.
	Compute(ops float64, ph Phase)
	// Send transmits data to processor dst, copying the payload so the
	// caller may reuse its buffer immediately.
	Send(dst, tag, iter int, data []float64)
	// SendShared is Send without the defensive copy: the transport may
	// reference data directly under the caller's guarantee that the slice
	// is never mutated afterwards.
	SendShared(dst, tag, iter int, data []float64)
	// TryRecv returns a queued message matching (src, tag) without
	// blocking; use Any for either field to match anything.
	TryRecv(src, tag int) (Message, bool)
	// Recv blocks until a message matching (src, tag) arrives.
	Recv(src, tag int) Message
	// RecvDeadline blocks until a matching message arrives or timeout
	// seconds elapse; ok=false means the deadline expired.
	RecvDeadline(src, tag int, timeout float64) (Message, bool)
	// PhaseTime returns the accumulated clock time spent in ph.
	PhaseTime(ph Phase) float64
}

// The simulated processor is the reference implementation of the contract.
var _ Transport = (*Proc)(nil)
