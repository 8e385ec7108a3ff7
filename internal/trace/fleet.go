package trace

// Fleet trace merge: per-node run journals from a distributed run, each
// stamped in its own process's clock, folded into one time-aligned Chrome
// trace where a speculation's predict/send/deliver/check/repair steps from
// different OS processes appear as one linked flow.
//
// Alignment: every node reports the wall-clock instant its journal's t=0
// corresponds to (Start) plus its measured clock offset to the reference
// node (Offset, from the heartbeat OffsetEstimator), so an event's position
// on the shared timeline is Start + e.T + Offset. Flows are keyed by the
// (src, dst, iter) triple both halves of a message exchange know, which is
// exactly the trace context distnet stamps on wire messages.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"specomp/internal/obs"
)

// NodeJournal is one node's contribution to a merged fleet trace.
type NodeJournal struct {
	// Rank identifies the node; it becomes the Chrome trace pid.
	Rank int `json:"rank"`
	// Start is the wall-clock unix time (seconds) of the node's run start —
	// the instant its journal events measure T from.
	Start float64 `json:"start"`
	// Offset is added to this node's times to land them on the reference
	// node's clock (the per-link estimate from OffsetEstimator; 0 for the
	// reference node itself).
	Offset float64 `json:"offset"`
	// Events is the node's run journal.
	Events []obs.Event `json:"events"`
}

// Aligned returns e's position on the shared fleet timeline, in unix
// seconds of the reference clock.
func (n NodeJournal) Aligned(e obs.Event) float64 { return n.Start + e.T + n.Offset }

// flowKey names one cross-process speculation flow: the message stream
// (src → dst) and the iteration it concerns.
type flowKey struct{ src, dst, iter int }

// specFlowSteps orders a flow's steps when timestamps tie.
var specFlowSteps = map[string]int{
	"predict": 0, "send": 1, "deliver": 2, "check_ok": 3, "check_bad": 3, "superseded": 3, "repair": 4,
}

// specSliceUS is the rendered duration of the point-like speculation steps —
// wide enough to click in Perfetto, short against real iteration times.
const specSliceUS = 1.5

// flowRef marks one slice as a step of a flow.
type flowRef struct {
	step string
	ts   float64
	pid  int
	tid  int
}

// FleetChromeEvents merges per-node journals into one set of Chrome trace
// events: one process track per node, iteration spans, speculation steps as
// short slices, and flow arrows linking each speculation's cross-process
// lifecycle. The earliest aligned event defines the trace's t=0.
func FleetChromeEvents(nodes []NodeJournal) []ChromeEvent {
	t0 := 0.0
	first := true
	for _, n := range nodes {
		for _, e := range n.Events {
			if at := n.Aligned(e); first || at < t0 {
				t0, first = at, false
			}
		}
	}

	var out []ChromeEvent
	flows := make(map[flowKey][]flowRef)
	for _, n := range nodes {
		out = append(out,
			ChromeEvent{Name: "process_name", Ph: "M", Pid: n.Rank,
				Args: map[string]any{"name": fmt.Sprintf("rank %d", n.Rank)}},
			ChromeEvent{Name: "thread_name", Ph: "M", Pid: n.Rank, Tid: 0,
				Args: map[string]any{"name": "engine"}},
		)
		iterStart := make(map[int]float64) // iter → aligned start
		badPeer := make(map[int]int)       // iter → peer of the last failed check
		for _, e := range n.Events {
			ts := (n.Aligned(e) - t0) * usPerSec
			switch e.Kind {
			case obs.EvIterStart:
				iterStart[e.Iter] = ts
				continue
			case obs.EvIterEnd:
				start, ok := iterStart[e.Iter]
				if !ok {
					continue
				}
				delete(iterStart, e.Iter)
				out = append(out, ChromeEvent{
					Name: fmt.Sprintf("iter %d", e.Iter), Cat: "iter", Ph: "X",
					Ts: start, Dur: ts - start, Pid: n.Rank, Tid: 0,
				})
				continue
			}
			step, key, ok := specStep(n.Rank, e)
			if !ok {
				out = append(out, ChromeEvent{
					Name: e.Kind, Cat: "event", Ph: "i", Ts: ts,
					Pid: n.Rank, Tid: 0, Scope: "t",
				})
				continue
			}
			if step == "check_bad" {
				badPeer[e.Iter] = e.Peer
			}
			if step == "repair" {
				if peer, found := badPeer[e.Iter]; found {
					key = flowKey{src: peer, dst: n.Rank, iter: e.Iter}
				} else {
					key = flowKey{}
					ok = false
				}
			}
			out = append(out, ChromeEvent{
				Name: step, Cat: "spec", Ph: "X", Ts: ts, Dur: specSliceUS,
				Pid: n.Rank, Tid: 0,
				Args: map[string]any{"peer": e.Peer, "iter": e.Iter, "v": e.V},
			})
			if ok {
				flows[key] = append(flows[key], flowRef{step: step, ts: ts, pid: n.Rank, tid: 0})
			}
		}
	}

	// Emit the flow arrows: one id per (src, dst, iter) key with at least two
	// steps, arrows drawn start → step → … → finish in timeline order.
	keys := make([]flowKey, 0, len(flows))
	for k, refs := range flows {
		if len(refs) >= 2 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.iter != b.iter {
			return a.iter < b.iter
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.dst < b.dst
	})
	for id, k := range keys {
		refs := flows[k]
		sort.SliceStable(refs, func(i, j int) bool {
			if refs[i].ts != refs[j].ts {
				return refs[i].ts < refs[j].ts
			}
			return specFlowSteps[refs[i].step] < specFlowSteps[refs[j].step]
		})
		name := fmt.Sprintf("spec %d→%d@%d", k.src, k.dst, k.iter)
		for i, r := range refs {
			ev := ChromeEvent{Name: name, Cat: "spec", Ts: r.ts, Pid: r.pid, Tid: r.tid, ID: id + 1}
			switch i {
			case 0:
				ev.Ph = "s"
			case len(refs) - 1:
				ev.Ph, ev.BP = "f", "e"
			default:
				ev.Ph, ev.BP = "t", "e"
			}
			out = append(out, ev)
		}
	}

	// Metadata first, then everything by (pid, tid, ts); the stable sort
	// keeps a flow event after the slice it binds to.
	sort.SliceStable(out, func(i, j int) bool {
		im, jm := out[i].Ph == "M", out[j].Ph == "M"
		if im != jm {
			return im
		}
		if out[i].Pid != out[j].Pid {
			return out[i].Pid < out[j].Pid
		}
		if out[i].Tid != out[j].Tid {
			return out[i].Tid < out[j].Tid
		}
		return out[i].Ts < out[j].Ts
	})
	return out
}

// specStep classifies a journal event as one step of a cross-process
// speculation flow, returning the step name and the flow key (src → dst
// message stream at iter). Events that are not flow steps report ok=false.
func specStep(rank int, e obs.Event) (step string, key flowKey, ok bool) {
	switch e.Kind {
	case obs.EvSpecMade:
		return "predict", flowKey{src: e.Peer, dst: rank, iter: e.Iter}, true
	case obs.EvSend:
		return "send", flowKey{src: rank, dst: e.Peer, iter: e.Iter}, true
	case obs.EvDeliver:
		return "deliver", flowKey{src: e.Peer, dst: rank, iter: e.Iter}, true
	case obs.EvSpecChecked:
		return "check_ok", flowKey{src: e.Peer, dst: rank, iter: e.Iter}, true
	case obs.EvSpecBad:
		return "check_bad", flowKey{src: e.Peer, dst: rank, iter: e.Iter}, true
	case obs.EvSpecSuperseded:
		return "superseded", flowKey{src: e.Peer, dst: rank, iter: e.Iter}, true
	case obs.EvRepair:
		return "repair", flowKey{}, true // key resolved by the caller from the failed check
	}
	return "", flowKey{}, false
}

// WriteFleetTrace writes the merged fleet trace as Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
func WriteFleetTrace(w io.Writer, nodes []NodeJournal) error {
	f := chromeFile{DisplayTimeUnit: "ms", TraceEvents: FleetChromeEvents(nodes)}
	if f.TraceEvents == nil {
		f.TraceEvents = []ChromeEvent{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f)
}
