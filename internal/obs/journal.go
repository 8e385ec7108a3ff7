package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// Journal event kinds emitted by the engine and the transports. The set is
// open — consumers should tolerate unknown kinds — but these names are the
// stable schema the engine and cluster write.
const (
	EvIterStart   = "iter_start"   // engine begins iteration Iter
	EvIterEnd     = "iter_end"     // engine finishes computing iteration Iter
	EvSpecMade    = "spec_made"    // prediction substituted for peer Peer at Iter
	EvSpecChecked = "spec_checked" // prediction validated; V = unit-bad fraction
	EvSpecBad     = "spec_bad"     // validation exceeded tolerance; V = unit-bad fraction
	EvRepair      = "repair"       // iteration Iter recomputed/corrected
	EvCascade     = "cascade"      // iteration Iter recomputed due to an upstream repair
	EvOverrun     = "overrun"      // validation deferred past a Deadline expiry
	EvReconcile   = "reconcile"    // overrun iteration validated against the real message
	EvConverged   = "converged"    // Stopper terminated the run at Iter
	EvRetrans     = "retrans"      // reliable layer retransmitted a message
	EvDup         = "dup"          // duplicate delivery suppressed
	EvGiveup      = "giveup"       // message abandoned after MaxRetries

	// Never checked: a cascade replaced Peer's prediction at Iter with the arrived actual.
	EvSpecSuperseded = "spec_superseded"

	// Crash/restart recovery (PR 3). V carries the kind-specific payload
	// noted per kind.
	EvCrash      = "crash"       // processor crashed; V = scheduled downtime (s)
	EvRestart    = "restart"     // processor restarted; Iter = new incarnation epoch
	EvPeerDead   = "peer_dead"   // reliable layer stopped retransmitting to a dead peer
	EvCheckpoint = "checkpoint"  // engine snapshot persisted; Iter = validated iter, V = bytes
	EvRestore    = "restore"     // engine state restored; Iter = validated iter of the snapshot
	EvRejoin     = "rejoin"      // rejoin request handled; Proc = survivor, Peer = rejoiner
	EvCatchup    = "catchup"     // rejoiner re-reached the surviving frontier; V = iterations replayed
	EvCatchupGap = "catchup_gap" // peer log could not cover the outage; V = first re-sendable iter

	// Wire-plane trace events (distnet, RunSpec.Trace): the cross-process
	// halves of a speculation's lifecycle, merged into one flow by
	// trace.FleetChromeEvents.
	EvSend    = "send"    // message enqueued for peer Peer at Iter; V = tag
	EvDeliver = "deliver" // message from Peer at Iter handed to the engine; V = delivery latency (s)
)

// NoPeer is the Event.Peer value for events not tied to a peer.
const NoPeer = -1

// Event is one journal record. Field order is the JSONL schema; every field
// is always present so lines are uniform and byte-stable across runs.
type Event struct {
	T    float64 `json:"t"`    // virtual (or wall) time, seconds
	Proc int     `json:"proc"` // processor the event happened on
	Kind string  `json:"kind"`
	Iter int     `json:"iter"` // iteration the event refers to (-1 if none)
	Peer int     `json:"peer"` // peer processor involved (NoPeer if none)
	V    float64 `json:"v"`    // kind-specific value (0 if unused)
}

// Journal is an append-only, concurrency-safe event log. On the simulated
// cluster the kernel schedules processors deterministically, so the same
// seed yields a byte-identical WriteJSONL output across runs. A nil *Journal
// is a valid "journal off" value: Record no-ops.
type Journal struct {
	mu      sync.Mutex
	events  []Event
	sink    *JournalWriter // when attached, every Record also streams here
	limit   int            // >0: retain only the most recent limit events in memory
	dropped int            // events trimmed from memory by the limit
}

// NewJournal returns an empty journal.
func NewJournal() *Journal { return &Journal{} }

// Attach streams every subsequent Record into w (in record order) in
// addition to the in-memory log. Pair with Limit to bound memory on long
// runs while the file keeps the full history.
func (j *Journal) Attach(w *JournalWriter) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.sink = w
	j.mu.Unlock()
}

// Limit bounds the in-memory retention to the most recent n events (0
// restores unbounded retention). Events/WriteJSONL then serve only the
// retained tail; an attached JournalWriter is unaffected.
func (j *Journal) Limit(n int) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.limit = n
	j.trimLocked()
	j.mu.Unlock()
}

// Dropped returns how many events the memory limit has trimmed.
func (j *Journal) Dropped() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}

// trimLocked enforces the memory limit, amortizing the copy by letting the
// slice grow to twice the limit before compacting.
func (j *Journal) trimLocked() {
	if j.limit <= 0 || len(j.events) <= 2*j.limit {
		return
	}
	drop := len(j.events) - j.limit
	j.dropped += drop
	j.events = append(j.events[:0], j.events[drop:]...)
}

// Record appends one event. No-op on nil.
func (j *Journal) Record(e Event) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.events = append(j.events, e)
	j.sink.Record(e) // under mu: file order matches memory order
	j.trimLocked()
	j.mu.Unlock()
}

// Len returns the number of recorded events (0 on nil).
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.events)
}

// Events returns a copy of the recorded events in order (nil on nil).
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Event, len(j.events))
	copy(out, j.events)
	return out
}

// Count returns how many events have the given kind.
func (j *Journal) Count(kind string) int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	n := 0
	for _, e := range j.events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// WriteJSONL writes the journal as one JSON object per line, in record
// order. Nil-safe: a nil journal writes nothing.
func (j *Journal) WriteJSONL(w io.Writer) error {
	if j == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, e := range j.events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a JSONL stream produced by WriteJSONL.
func ReadJSONL(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var out []Event
	for dec.More() {
		var e Event
		if err := dec.Decode(&e); err != nil {
			return out, err
		}
		out = append(out, e)
	}
	return out, nil
}
