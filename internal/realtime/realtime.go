// Package realtime executes a synchronous iterative application with
// speculative computation on REAL goroutines — the library's
// answer to "does this run outside the simulator?". Each processor is a
// goroutine; a message goes straight into its receiver's inbox
// (internal/inbox), with an optional injected wall-clock latency owed there.
//
// The package implements core.Transport, so the full engine runs here
// unchanged: every forward window, the Publisher/Stopper/Corrector
// extensions, and the speculation statistics all behave exactly as on the
// simulated cluster. Operation-count charging is a no-op (the app's real
// CPU time is the cost), and blocked-receive time is accounted in wall
// seconds.
package realtime

import (
	"fmt"
	"math"
	"sync"
	"time"

	"specomp/internal/cluster"
	"specomp/internal/core"
	"specomp/internal/inbox"
	"specomp/internal/obs"
)

// Config parameterizes a real-time run.
type Config struct {
	// Procs is the number of worker goroutines.
	Procs int
	// MaxIter is the number of iterations.
	MaxIter int
	// FW is the forward window (any value the engine supports). Speculation
	// takes the engine's defaults: the app's Speculator, else predict.Linear
	// over a backward window of max(its window, 2).
	FW int
	// Delay is an artificial per-message latency emulating a slow
	// interconnect: a message becomes visible to its receiver Delay after it
	// was sent, by the receiver's own clock, however busy either side is.
	Delay time.Duration
	// Metrics, when non-nil, receives the engine's counters and histograms
	// for every worker (per-processor labels).
	Metrics *obs.Registry
	// Journal, when non-nil, receives the structured run journal stamped
	// with wall-clock seconds since the run started. Unlike the simulated
	// cluster, ordering across workers is not deterministic.
	Journal *obs.Journal
}

// Result is one processor's outcome: the engine's record plus wall-clock
// timings.
type Result struct {
	core.Result
	Elapsed time.Duration
	// CommBlocked is the wall-clock time spent blocked on receives.
	CommBlocked time.Duration
}

// transport carries the engine over goroutines: a send is a Put straight
// into the receiver's inbox, owed Delay there, its payload copied into a row
// that inbox lends and takes back (core.Releaser).
type transport struct {
	id, p   int
	inbox   *inbox.Inbox
	peers   []*inbox.Inbox
	hold    float64 // Delay in seconds, owed by the receiver (never negative)
	start   time.Time
	commSec float64
}

var _ interface {
	core.Transport
	core.Releaser
	core.DeadlineReceiver
} = (*transport)(nil)

func (t *transport) ID() int { return t.id }

func (t *transport) P() int { return t.p }

func (t *transport) Now() float64 { return time.Since(t.start).Seconds() }

// Compute is a no-op: on a wall-clock substrate the work has already been
// done by the app itself.
func (t *transport) Compute(float64, cluster.Phase) {}

// Send puts the message in dst's inbox with data copied into a row that
// inbox lends; the receiver's engine gives it back through Release.
func (t *transport) Send(dst, tag, iter int, data []float64) {
	to := t.peers[dst]
	to.Put(cluster.Message{Src: t.id, Dst: dst, Tag: tag, Iter: iter, Data: to.Copy(data), SentAt: t.Now(), Hold: t.hold})
}

// Release implements core.Releaser: delivered payloads are own-inbox rows.
func (t *transport) Release(data []float64) { t.inbox.Release(data) }

func (t *transport) TryRecv(src, tag int) (cluster.Message, bool) {
	return t.take(src, tag, math.Inf(-1))
}

func (t *transport) Recv(src, tag int) cluster.Message {
	m, _ := t.RecvDeadline(src, tag, math.Inf(1))
	return m
}

// RecvDeadline implements core.DeadlineReceiver over a wall-clock timeout,
// with the wait accounted as communication time. A message due only after
// the deadline stays queued for the next call.
func (t *transport) RecvDeadline(src, tag int, timeout float64) (cluster.Message, bool) {
	before := time.Now()
	defer func() { t.commSec += time.Since(before).Seconds() }()
	return t.take(src, tag, timeout)
}

// take hands over the next visible message, waiting at most wait seconds.
func (t *transport) take(src, tag int, wait float64) (cluster.Message, bool) {
	cluster.MustAny(src, tag)
	m, ok := t.inbox.Take(wait)
	if ok {
		m.DeliveredAt = t.Now()
	}
	return m, ok
}

func (t *transport) PhaseTime(ph cluster.Phase) float64 {
	if ph == cluster.PhaseComm {
		return t.commSec
	}
	return 0
}

// newMesh builds p fully connected transports sharing one clock origin.
func newMesh(p int, delay time.Duration) []*transport {
	inboxes := make([]*inbox.Inbox, p)
	for i := range inboxes {
		inboxes[i] = inbox.New()
	}
	mesh := make([]*transport, p)
	start := time.Now()
	for i := range mesh {
		mesh[i] = &transport{id: i, p: p, inbox: inboxes[i], peers: inboxes, hold: max(delay, 0).Seconds(), start: start}
	}
	return mesh
}

// Run executes the application and returns per-processor results.
func Run(cfg Config, factory func(pid, procs int) core.App) ([]Result, error) {
	if cfg.Procs < 1 {
		return nil, fmt.Errorf("realtime: Procs must be >= 1")
	}
	if cfg.MaxIter < 1 {
		return nil, fmt.Errorf("realtime: MaxIter must be >= 1")
	}
	p := cfg.Procs
	ecfg := core.Config{
		FW: cfg.FW, MaxIter: cfg.MaxIter, Metrics: cfg.Metrics, Journal: cfg.Journal,
	}
	if cfg.Metrics != nil {
		// Pre-register every worker's engine families plus the transport's
		// retransmission counter (always 0 on in-process channels), so a
		// /metrics scrape covers the full schema from the first instant.
		for pid := 0; pid < p; pid++ {
			core.RegisterEngineMetrics(cfg.Metrics, pid)
			cfg.Metrics.Counter(cluster.MetricRetransmits,
				"reliable-layer retransmissions (always 0 on the in-process channel transport)",
				obs.L("proc", fmt.Sprint(pid)))
		}
	}
	results := make([]Result, p)
	errs := make([]error, p)
	transports := newMesh(p, cfg.Delay)
	start := transports[0].start
	var wg sync.WaitGroup
	for pid := 0; pid < p; pid++ {
		pid, tr := pid, transports[pid]
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := core.Run(tr, factory(pid, p), ecfg)
			if err != nil {
				errs[pid] = err
				return
			}
			results[pid] = Result{
				Result:      res,
				Elapsed:     time.Since(start),
				CommBlocked: time.Duration(res.Stats.CommTime * float64(time.Second)),
			}
		}()
	}
	wg.Wait()
	for _, tr := range transports {
		tr.inbox.Close()
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("realtime: processor %d: %w", i, err)
		}
	}
	return results, nil
}
