package distnet

// Wire-plane instrumentation: metric handles for the batching layer,
// per-peer links and the control plane. Everything is built on
// internal/obs's nil-safe instruments and wrapped in nil-safe methods here,
// so a transport without a registry pays one nil check per event and the
// data path keeps its zero-allocation steady state.

import (
	"strconv"
	"time"

	"specomp/internal/obs"
)

// Wire-plane metric names. All are per-node; the fleet plane adds node/job
// labels when aggregating.
const (
	// MetricBatchOccupancy histograms how many messages each flushed batch
	// carried — the direct readout of how well coalescing amortizes frames.
	MetricBatchOccupancy = "specomp_wire_batch_msgs"
	// MetricFlushes counts batch flushes by reason label
	// (msgs|bytes|recv|close).
	MetricFlushes = "specomp_wire_flush_total"
	// MetricSendQueue gauges the per-peer writer queue depth at enqueue time.
	MetricSendQueue = "specomp_wire_sendq_depth"
	// MetricFramesSent counts frames written per peer link.
	MetricFramesSent = "specomp_wire_frames_sent_total"
	// MetricHeartbeats counts explicit heartbeat beacons sent per peer link.
	MetricHeartbeats = "specomp_wire_heartbeats_total"
	// MetricWireLatency histograms send→deliver latency per peer link (s).
	MetricWireLatency = "specomp_wire_delivery_latency_seconds"
	// MetricDialAttempts counts peer dial attempts (retries included).
	MetricDialAttempts = "specomp_wire_dial_attempts_total"
	// MetricHelloRetries counts hello handshakes redialed after truncation.
	MetricHelloRetries = "specomp_wire_hello_retries_total"
	// MetricObsPushes counts metrics snapshots pushed to the coordinator.
	MetricObsPushes = "specomp_wire_obs_pushes_total"
	// MetricClockOffset gauges the estimated peer clock offset (s, peer−local).
	MetricClockOffset = "specomp_wire_clock_offset_seconds"
	// MetricClockRTT gauges the RTT of the minimum-RTT clock sample (s).
	MetricClockRTT = "specomp_wire_clock_rtt_seconds"
	// MetricPeerReconnects counts replacement peer links accepted from
	// rejoining (higher-epoch) incarnations of crashed peers.
	MetricPeerReconnects = "specomp_wire_peer_reconnects_total"
	// MetricNodeEpoch gauges this process's incarnation epoch (0 on first
	// launch; a respawned node reports the bumped value).
	MetricNodeEpoch = "specomp_node_epoch"
)

// Batch flush reasons, the label values of MetricFlushes.
const (
	flushMsgs  = iota // batch hit maxBatchMsgs
	flushBytes        // batch hit maxBatchBytes
	flushRecv         // the engine stopped talking: empty poll, blocking receive, or Run returned
	flushClose        // transport teardown
	flushReasons
)

// flushReasonNames are the exposition label values, indexed by reason.
var flushReasonNames = [flushReasons]string{"msgs", "bytes", "recv", "close"}

// linkObs is the instrument set of one peer link.
type linkObs struct {
	sendq       *obs.Gauge
	frames      *obs.Counter
	heartbeats  *obs.Counter
	latency     *obs.Histogram
	clockOffset *obs.Gauge
	clockRTT    *obs.Gauge
}

// noteFrame counts one frame written to the socket. Nil-safe.
func (lo *linkObs) noteFrame() {
	if lo == nil {
		return
	}
	lo.frames.Inc()
}

// noteHeartbeat counts one explicit beacon. Nil-safe.
func (lo *linkObs) noteHeartbeat() {
	if lo == nil {
		return
	}
	lo.heartbeats.Inc()
}

// observeLatency records one send→deliver latency sample. Nil-safe.
func (lo *linkObs) observeLatency(d float64) {
	if lo == nil {
		return
	}
	lo.latency.Observe(d)
}

// setQueueDepth gauges the writer queue occupancy. Nil-safe.
func (lo *linkObs) setQueueDepth(n int) {
	if lo == nil {
		return
	}
	lo.sendq.Set(float64(n))
}

// setClock publishes the link's clock-offset estimate. Nil-safe.
func (lo *linkObs) setClock(offset, rtt float64) {
	if lo == nil {
		return
	}
	lo.clockOffset.Set(offset)
	lo.clockRTT.Set(rtt)
}

// wireObs is one node's wire-plane instrument set: shared batching/control
// metrics plus a per-peer linkObs. A nil *wireObs (no registry) disables
// everything through the nil-safe methods.
type wireObs struct {
	batch        *obs.Histogram
	flush        [flushReasons]*obs.Counter
	dialAttempts *obs.Counter
	helloRetries *obs.Counter
	pushes       *obs.Counter
	reconnects   *obs.Counter
	links        []*linkObs // indexed by peer rank; nil at own rank
}

// newWireObs registers the wire-plane instruments of one node on reg: shared
// series labelled proc=<rank>, per-link series additionally labelled
// peer=<rank>. A nil reg yields a nil wireObs.
func newWireObs(reg *obs.Registry, rank, procs int) *wireObs {
	if reg == nil {
		return nil
	}
	lp := obs.L("proc", strconv.Itoa(rank))
	w := &wireObs{
		batch: reg.Histogram(MetricBatchOccupancy, "Messages per flushed batch frame.",
			[]float64{1, 2, 4, 8, 16, 32}, lp),
		dialAttempts: reg.Counter(MetricDialAttempts, "Peer dial attempts, retries included.", lp),
		helloRetries: reg.Counter(MetricHelloRetries, "Hello handshakes redialed after truncation.", lp),
		pushes:       reg.Counter(MetricObsPushes, "Metrics snapshots pushed to the coordinator.", lp),
		reconnects:   reg.Counter(MetricPeerReconnects, "Replacement links accepted from rejoining peers.", lp),
		links:        make([]*linkObs, procs),
	}
	for i, name := range flushReasonNames {
		w.flush[i] = reg.Counter(MetricFlushes, "Batch flushes by reason.", lp, obs.L("reason", name))
	}
	latBuckets := obs.ExpBuckets(1e-5, 2, 16)
	for p := 0; p < procs; p++ {
		if p == rank {
			continue
		}
		pl := obs.L("peer", strconv.Itoa(p))
		w.links[p] = &linkObs{
			sendq:       reg.Gauge(MetricSendQueue, "Writer queue depth at enqueue time.", lp, pl),
			frames:      reg.Counter(MetricFramesSent, "Frames written per peer link.", lp, pl),
			heartbeats:  reg.Counter(MetricHeartbeats, "Explicit heartbeat beacons sent.", lp, pl),
			latency:     reg.Histogram(MetricWireLatency, "Send-to-deliver latency (s).", latBuckets, lp, pl),
			clockOffset: reg.Gauge(MetricClockOffset, "Estimated peer clock offset (s, peer minus local).", lp, pl),
			clockRTT:    reg.Gauge(MetricClockRTT, "RTT of the minimum-RTT clock sample (s).", lp, pl),
		}
	}
	return w
}

// link returns the instrument set for peer rank p (nil when uninstrumented
// or out of range). Nil-safe.
func (w *wireObs) link(p int) *linkObs {
	if w == nil || p < 0 || p >= len(w.links) {
		return nil
	}
	return w.links[p]
}

// noteFlush records one batch flush: the reason counter and, for non-empty
// batches, the occupancy histogram. Nil-safe.
func (w *wireObs) noteFlush(reason, msgs int) {
	if w == nil {
		return
	}
	if reason >= 0 && reason < flushReasons {
		w.flush[reason].Inc()
	}
	if msgs > 0 {
		w.batch.Observe(float64(msgs))
	}
}

// noteDial counts one dial attempt. Nil-safe.
func (w *wireObs) noteDial() {
	if w == nil {
		return
	}
	w.dialAttempts.Inc()
}

// noteHelloRetry counts one truncated-hello redial. Nil-safe.
func (w *wireObs) noteHelloRetry() {
	if w == nil {
		return
	}
	w.helloRetries.Inc()
}

// noteReconnect counts one accepted replacement link. Nil-safe.
func (w *wireObs) noteReconnect() {
	if w == nil {
		return
	}
	w.reconnects.Inc()
}

// notePush counts one snapshot push. Nil-safe.
func (w *wireObs) notePush() {
	if w == nil {
		return
	}
	w.pushes.Inc()
}

// unixNow returns the wall clock as unix seconds, the stamp resolution of
// the heartbeat clock tail.
func unixNow() float64 { return float64(time.Now().UnixNano()) / 1e9 }
