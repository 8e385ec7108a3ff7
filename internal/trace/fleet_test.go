package trace

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"specomp/internal/obs"
)

// twoSkewedNodes builds journals for a two-process exchange in which rank 1's
// clock runs 2 s ahead of rank 0's (the reference): rank 0 sends its iter-5
// boundary message, rank 1 predicts it, later receives it, and validates the
// prediction. Rank 1 also has a failed check at iter 6 followed by a repair.
// All rank-1 stamps are in its own skewed clock; Offset = -2 aligns them.
func twoSkewedNodes() []NodeJournal {
	return []NodeJournal{
		{Rank: 0, Start: 1000.0, Offset: 0, Events: []obs.Event{
			{T: 0.000, Proc: 0, Kind: obs.EvIterStart, Iter: 5, Peer: obs.NoPeer},
			{T: 0.010, Proc: 0, Kind: obs.EvSend, Iter: 5, Peer: 1, V: 7},
			{T: 0.012, Proc: 0, Kind: obs.EvIterEnd, Iter: 5, Peer: obs.NoPeer},
		}},
		{Rank: 1, Start: 1002.005, Offset: -2.0, Events: []obs.Event{
			{T: 0.001, Proc: 1, Kind: obs.EvSpecMade, Iter: 5, Peer: 0},
			{T: 0.030, Proc: 1, Kind: obs.EvDeliver, Iter: 5, Peer: 0, V: 0.02},
			{T: 0.031, Proc: 1, Kind: obs.EvSpecChecked, Iter: 5, Peer: 0, V: 0.0},
			{T: 0.050, Proc: 1, Kind: obs.EvSpecBad, Iter: 6, Peer: 0, V: 0.4},
			{T: 0.055, Proc: 1, Kind: obs.EvRepair, Iter: 6, Peer: obs.NoPeer},
		}},
	}
}

// TestFleetTraceLinksProcesses is the tentpole check: the merged trace has
// one process track per rank, and a speculation's send/predict/deliver/check
// steps from the two OS processes share one flow id.
func TestFleetTraceLinksProcesses(t *testing.T) {
	evs := FleetChromeEvents(twoSkewedNodes())

	pids := map[int]bool{}
	for _, e := range evs {
		pids[e.Pid] = true
	}
	if len(pids) != 2 {
		t.Fatalf("trace spans %d pids, want 2", len(pids))
	}

	// Collect flow events by id; the iter-5 flow must touch both pids and
	// carry all four steps in timeline order s → t → t → f.
	flows := map[int][]ChromeEvent{}
	for _, e := range evs {
		if e.Ph == "s" || e.Ph == "t" || e.Ph == "f" {
			flows[e.ID] = append(flows[e.ID], e)
		}
	}
	if len(flows) != 2 {
		t.Fatalf("got %d flows, want 2 (iter 5 spec + iter 6 repair)", len(flows))
	}
	var spec5 []ChromeEvent
	for _, refs := range flows {
		if refs[0].Name == "spec 0→1@5" {
			spec5 = refs
		}
	}
	if len(spec5) != 4 {
		t.Fatalf("iter-5 flow has %d refs, want 4 (send, predict, deliver, check)", len(spec5))
	}
	// The emitted array is pid-major; put the refs back on the timeline to
	// check the arrow sequence: start at the earliest step, finish at the
	// latest, binding both processes.
	sort.Slice(spec5, func(i, j int) bool { return spec5[i].Ts < spec5[j].Ts })
	flowPids := map[int]bool{}
	for _, r := range spec5 {
		flowPids[r.Pid] = true
	}
	if !flowPids[0] || !flowPids[1] {
		t.Errorf("iter-5 flow does not span both processes: pids %v", flowPids)
	}
	if spec5[0].Ph != "s" || spec5[len(spec5)-1].Ph != "f" {
		t.Errorf("flow must run s…f in timeline order, got %q…%q", spec5[0].Ph, spec5[len(spec5)-1].Ph)
	}
	for _, r := range spec5[1 : len(spec5)-1] {
		if r.Ph != "t" {
			t.Errorf("interior flow ref has phase %q, want \"t\"", r.Ph)
		}
	}
}

// TestFleetTraceClockAlignment: with the 2 s skew corrected, rank 1's
// predict (its clock 1002.006) lands between rank 0's iter start and the
// deliver — and crucially the send happens before the deliver on the shared
// timeline, which raw timestamps would invert badly.
func TestFleetTraceClockAlignment(t *testing.T) {
	nodes := twoSkewedNodes()
	evs := FleetChromeEvents(nodes)

	at := func(pid int, name string) float64 {
		for _, e := range evs {
			if e.Pid == pid && e.Ph == "X" && e.Name == name {
				return e.Ts
			}
		}
		t.Fatalf("no %q slice on pid %d", name, pid)
		return 0
	}
	send, deliver, predict := at(0, "send"), at(1, "deliver"), at(1, "predict")
	if send >= deliver {
		t.Errorf("send at %vµs not before deliver at %vµs after alignment", send, deliver)
	}
	if predict >= send {
		t.Errorf("rank 1 predicted at %vµs, after the real send at %vµs — speculation should front-run", predict, send)
	}
	// t=0 is the earliest aligned event: rank 0's iter start. Aligned predict
	// is (1002.005 + 0.001 − 2.0) − 1000.0 = 6 ms = 6000 µs.
	if predict < 5999 || predict > 6001 {
		t.Errorf("predict at %vµs, want ≈6000µs on the aligned timeline", predict)
	}
}

// TestFleetTraceRepairFlow: a repair has no peer of its own; it must join
// the flow of the failed check that caused it.
func TestFleetTraceRepairFlow(t *testing.T) {
	evs := FleetChromeEvents(twoSkewedNodes())
	for _, e := range evs {
		if e.Ph == "s" && e.Name == "spec 0→1@6" {
			return
		}
	}
	t.Fatalf("no flow for the iter-6 check_bad → repair pair")
}

// TestFleetTraceSupersededEndsFlow: a prediction a cascade replaced with the
// arrived actual is never checked; its flow must still finish, on the
// superseded step, after the delivery that made it possible.
func TestFleetTraceSupersededEndsFlow(t *testing.T) {
	evs := FleetChromeEvents([]NodeJournal{{Rank: 1, Events: []obs.Event{
		{T: 0.001, Proc: 1, Kind: obs.EvSpecMade, Iter: 7, Peer: 0},
		{T: 0.020, Proc: 1, Kind: obs.EvDeliver, Iter: 7, Peer: 0, V: 0.002},
		{T: 0.020, Proc: 1, Kind: obs.EvSpecSuperseded, Iter: 7, Peer: 0},
	}}})
	var steps, phases []string
	for _, e := range evs {
		switch {
		case e.Cat == "spec" && e.Ph == "X":
			steps = append(steps, e.Name)
		case e.Name == "spec 0→1@7":
			phases = append(phases, e.Ph)
		}
	}
	if got := strings.Join(steps, " "); got != "predict deliver superseded" {
		t.Errorf("speculation slices %q, want predict deliver superseded", got)
	}
	if got := strings.Join(phases, ""); got != "stf" {
		t.Errorf("flow phases %q, want s, t, f ending on the superseded step", got)
	}
}

// TestWriteFleetTraceJSON: the output is a valid Chrome trace file — JSON
// with a traceEvents array (never null) and metadata events leading.
func TestWriteFleetTraceJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFleetTrace(&buf, twoSkewedNodes()); err != nil {
		t.Fatalf("WriteFleetTrace: %v", err)
	}
	var f struct {
		DisplayTimeUnit string        `json:"displayTimeUnit"`
		TraceEvents     []ChromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if f.DisplayTimeUnit != "ms" || len(f.TraceEvents) == 0 {
		t.Fatalf("unexpected file shape: unit=%q events=%d", f.DisplayTimeUnit, len(f.TraceEvents))
	}
	for i, e := range f.TraceEvents {
		if e.Ph == "M" && i > 0 && f.TraceEvents[i-1].Ph != "M" {
			t.Fatalf("metadata event at index %d after non-metadata", i)
		}
	}

	// Empty input still renders a loadable file.
	buf.Reset()
	if err := WriteFleetTrace(&buf, nil); err != nil {
		t.Fatalf("empty WriteFleetTrace: %v", err)
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil || f.TraceEvents == nil {
		t.Fatalf("empty trace must still hold a [] traceEvents array: %v / %s", err, buf.String())
	}
}
