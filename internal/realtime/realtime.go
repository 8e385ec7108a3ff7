// Package realtime executes a synchronous iterative application with
// speculative computation on REAL goroutines and channels — the library's
// answer to "does this run outside the simulator?". Each processor is a
// goroutine; messages travel over Go channels with an optional injected
// wall-clock latency.
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
	"specomp/internal/obs"
	"specomp/internal/predict"
)

// Config parameterizes a real-time run.
type Config struct {
	// Procs is the number of worker goroutines.
	Procs int
	// MaxIter is the number of iterations.
	MaxIter int
	// FW is the forward window (any value the engine supports).
	FW int
	// BW is the backward window; defaults to the predictor's window.
	BW int
	// Predictor is the generic speculation function (default predict.Linear).
	Predictor predict.Predictor
	// HoldSends forwards the engine's speculative-send ablation switch.
	HoldSends bool
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
	// HTTPAddr, when non-empty, serves live introspection for the duration
	// of the run: Prometheus text exposition at /metrics (from Metrics),
	// expvar at /debug/vars, and net/http/pprof at /debug/pprof/. Use
	// "127.0.0.1:0" to bind an ephemeral port (obs.Listen is the same
	// endpoint for standalone use, and reports the address it bound).
	HTTPAddr string
}

// Result is one processor's outcome.
type Result struct {
	Proc      int
	Final     []float64
	Converged bool
	// Stats is the engine's full per-processor statistics record —
	// speculation, check, repair, cascade, and phase-time accounting.
	Stats     core.Stats
	SpecsMade int
	SpecsBad  int
	Repairs   int
	Elapsed   time.Duration
	// CommBlocked is the wall-clock time spent blocked on receives.
	CommBlocked time.Duration
}

// transport adapts goroutine channels to the full cluster.Transport
// contract (and therefore to core.Transport plus all its optional
// capability upgrades).
type transport struct {
	id, p int
	inbox chan cluster.Message
	peers []chan cluster.Message
	// delay, in seconds, is visibility by the receiver's clock: a message is
	// in the inbox the moment it is sent and handed over once Now() reads
	// SentAt + delay. The inbox is FIFO in send order and delay is constant,
	// so its head is always the next message due, and head — one message of
	// look-ahead in front of pending — is the whole delay queue. Nothing runs
	// per message: a rank that never yields sees on its next poll exactly
	// what a NIC would have buffered for it.
	delay   float64
	start   time.Time
	head    cluster.Message // off the inbox, not yet handed over (valid when hasHead)
	hasHead bool
	pending []cluster.Message // handed over, passed by a selective receive
	commSec float64
}

var _ cluster.Transport = (*transport)(nil)

func (t *transport) ID() int { return t.id }

func (t *transport) P() int { return t.p }

func (t *transport) Now() float64 { return time.Since(t.start).Seconds() }

// Compute is a no-op: on a wall-clock substrate the work has already been
// done by the app itself.
func (t *transport) Compute(float64, cluster.Phase) {}

func (t *transport) Send(dst, tag, iter int, data []float64) {
	payload := make([]float64, len(data))
	copy(payload, data)
	t.SendShared(dst, tag, iter, payload)
}

// SendShared enqueues the message with its payload aliased, not copied; the
// receiver adopts the slice. The caller must never mutate data afterwards,
// which lets a broadcast share one immutable payload across all peers.
func (t *transport) SendShared(dst, tag, iter int, data []float64) {
	t.peers[dst] <- cluster.Message{Src: t.id, Dst: dst, Tag: tag, Iter: iter, Data: data, SentAt: t.Now()}
}

func matches(m cluster.Message, src, tag int) bool {
	return (src == cluster.Any || m.Src == src) && (tag == cluster.Any || m.Tag == tag)
}

func (t *transport) takePending(src, tag int) (cluster.Message, bool) {
	for i, m := range t.pending {
		if matches(m, src, tag) {
			t.pending = append(t.pending[:i], t.pending[i+1:]...)
			return m, true
		}
	}
	return cluster.Message{}, false
}

func (t *transport) TryRecv(src, tag int) (cluster.Message, bool) {
	return t.recv(src, tag, math.Inf(-1))
}

func (t *transport) Recv(src, tag int) cluster.Message {
	m, _ := t.blocked(src, tag, math.Inf(1))
	return m
}

// RecvDeadline implements core.DeadlineReceiver over a wall-clock timeout,
// enabling the engine's graceful-degradation mode on the realtime substrate.
// A message due only after the deadline stays queued for the next call.
func (t *transport) RecvDeadline(src, tag int, timeout float64) (cluster.Message, bool) {
	return t.blocked(src, tag, t.Now()+timeout)
}

// blocked is recv with the wait accounted as communication time.
func (t *transport) blocked(src, tag int, limit float64) (cluster.Message, bool) {
	before := time.Now()
	defer func() { t.commSec += time.Since(before).Seconds() }()
	return t.recv(src, tag, limit)
}

// recv returns the first matching message to become visible before the clock
// reads limit; -Inf polls, +Inf waits for ever. Each turn waits once: on the
// inbox while the look-ahead slot is empty (nothing can become visible before
// something arrives), else by sleeping to the earlier of the head's due time
// and the limit (nothing behind the head is due sooner).
func (t *transport) recv(src, tag int, limit float64) (cluster.Message, bool) {
	if m, ok := t.takePending(src, tag); ok {
		return m, true
	}
	var expired <-chan time.Time // nil, so never ready, until a bounded call first finds the inbox empty
	for {
		if !t.hasHead {
			if limit < 0 {
				select {
				case t.head = <-t.inbox:
				default:
					return cluster.Message{}, false
				}
			} else {
				if expired == nil && !math.IsInf(limit, 1) {
					timer := time.NewTimer(seconds(limit - t.Now()))
					defer timer.Stop()
					expired = timer.C
				}
				select {
				case t.head = <-t.inbox:
				case <-expired:
					return cluster.Message{}, false
				}
			}
			t.hasHead = true
		}
		now := t.Now() // the one clock read per message: visibility test and DeliveredAt
		if due := t.head.SentAt + t.delay; t.delay > 0 && now < due {
			if limit > now {
				time.Sleep(seconds(min(limit, due) - now))
			}
			if limit < due {
				return cluster.Message{}, false
			}
			continue
		}
		m := t.head
		m.DeliveredAt = now
		t.head, t.hasHead = cluster.Message{}, false
		if matches(m, src, tag) {
			return m, true
		}
		t.pending = append(t.pending, m)
	}
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func (t *transport) PhaseTime(ph cluster.Phase) float64 {
	if ph == cluster.PhaseComm {
		return t.commSec
	}
	return 0
}

// newMesh builds p fully connected transports sharing one clock origin.
func newMesh(p, maxIter int, delay time.Duration) []*transport {
	inbox := make([]chan cluster.Message, p)
	mesh := make([]*transport, p)
	start := time.Now()
	for i := range mesh {
		// Generous buffering: senders must never block (MaxIter data
		// messages from each peer, plus slack).
		inbox[i] = make(chan cluster.Message, p*(maxIter+4))
		mesh[i] = &transport{id: i, p: p, inbox: inbox[i], peers: inbox, delay: delay.Seconds(), start: start}
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
		FW: cfg.FW, BW: cfg.BW, MaxIter: cfg.MaxIter,
		Predictor: cfg.Predictor, HoldSends: cfg.HoldSends,
		Metrics: cfg.Metrics, Journal: cfg.Journal,
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
	if cfg.HTTPAddr != "" {
		srv, err := obs.Listen(cfg.HTTPAddr, obs.Handler(cfg.Metrics, cfg.Journal))
		if err != nil {
			return nil, fmt.Errorf("realtime: obs endpoint: %w", err)
		}
		defer srv.Close()
	}
	results := make([]Result, p)
	errs := make([]error, p)
	transports := newMesh(p, cfg.MaxIter, cfg.Delay)
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
				Proc:        pid,
				Final:       res.Final,
				Converged:   res.Converged,
				Stats:       res.Stats,
				SpecsMade:   res.Stats.SpecsMade,
				SpecsBad:    res.Stats.SpecsBad,
				Repairs:     res.Stats.Repairs,
				Elapsed:     time.Since(start),
				CommBlocked: time.Duration(res.Stats.CommTime * float64(time.Second)),
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("realtime: processor %d: %w", i, err)
		}
	}
	return results, nil
}
