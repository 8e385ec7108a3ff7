package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// ChromeEvent is one record of the Chrome trace-event format (the JSON
// Perfetto and chrome://tracing load). Phase spans are complete events
// (ph "X") with microsecond timestamps and durations; a fleet journal's
// point events are instants (ph "i"); pid/tid naming uses metadata events
// (ph "M").
// See the Trace Event Format spec for field meanings.
type ChromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"` // microseconds
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`  // instant scope: "t" = thread
	ID    int            `json:"id,omitempty"` // flow-event binding (ph "s"/"t"/"f")
	BP    string         `json:"bp,omitempty"` // flow binding point: "e" = enclosing slice
	Args  map[string]any `json:"args,omitempty"`
}

// chromeFile is the JSON-object flavour of the format, which lets us set the
// display unit.
type chromeFile struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// NamedRecorder pairs a recorder with a label so several runs (e.g. the
// three Figure 2 scenarios) can share one trace file, each as its own
// process track.
type NamedRecorder struct {
	Name string
	Rec  *Recorder
}

const usPerSec = 1e6

// ChromeEvents converts the recorder's spans to trace events on process
// pid, sorted by (tid, ts) so every track is monotonic.
// name labels the process track (empty for none).
func (r *Recorder) ChromeEvents(pid int, name string) []ChromeEvent {
	procs := map[int]bool{}
	var out []ChromeEvent
	for _, s := range r.Spans {
		procs[s.Proc] = true
		out = append(out, ChromeEvent{
			Name: s.Phase.String(),
			Cat:  "phase",
			Ph:   "X",
			Ts:   s.Start * usPerSec,
			Dur:  (s.End - s.Start) * usPerSec,
			Pid:  pid,
			Tid:  s.Proc,
		})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Tid != out[j].Tid {
			return out[i].Tid < out[j].Tid
		}
		return out[i].Ts < out[j].Ts
	})
	// Metadata first: name the process and its per-processor threads.
	var meta []ChromeEvent
	if name != "" {
		meta = append(meta, ChromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": name},
		})
	}
	ids := make([]int, 0, len(procs))
	for id := range procs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		meta = append(meta, ChromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: id,
			Args: map[string]any{"name": fmt.Sprintf("P%d", id)},
		})
	}
	return append(meta, out...)
}

// WriteChromeTrace writes one or more recorded runs as Chrome trace-event
// JSON, loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. Each
// run becomes its own process track, numbered in argument order.
func WriteChromeTrace(w io.Writer, runs ...NamedRecorder) error {
	f := chromeFile{DisplayTimeUnit: "ms", TraceEvents: []ChromeEvent{}}
	for pid, run := range runs {
		f.TraceEvents = append(f.TraceEvents, run.Rec.ChromeEvents(pid, run.Name)...)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f)
}

// WriteChrome writes this recorder alone as Chrome trace-event JSON.
func (r *Recorder) WriteChrome(w io.Writer, name string) error {
	return WriteChromeTrace(w, NamedRecorder{Name: name, Rec: r})
}
