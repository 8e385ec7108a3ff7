package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"specomp/internal/cluster"
)

func sampleRecorder() *Recorder {
	var r Recorder
	hook := r.Hook()
	hook(0, cluster.PhaseCompute, 0, 2)
	hook(0, cluster.PhaseComm, 2, 3)
	hook(0, cluster.PhaseCheck, 3, 3.5)
	hook(1, cluster.PhaseSpec, 0, 1)
	hook(1, cluster.PhaseCompute, 1, 3)
	return &r
}

func TestChromeTraceStructure(t *testing.T) {
	var b bytes.Buffer
	if err := sampleRecorder().WriteChrome(&b, "sample"); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(b.Bytes(), &f); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if f.Unit != "ms" {
		t.Errorf("displayTimeUnit = %q", f.Unit)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	// Every event carries the required fields; timestamps are monotonic
	// within each (pid, tid) track.
	lastTs := map[[2]int]float64{}
	spans, metas := 0, 0
	for _, e := range f.TraceEvents {
		ph, ok := e["ph"].(string)
		if !ok {
			t.Fatalf("event missing ph: %v", e)
		}
		if _, ok := e["pid"].(float64); !ok {
			t.Fatalf("event missing pid: %v", e)
		}
		if _, ok := e["tid"]; ph != "M" && !ok {
			t.Fatalf("event missing tid: %v", e)
		}
		switch ph {
		case "M":
			metas++
			continue
		case "X":
			spans++
		default:
			t.Fatalf("unexpected phase %q", ph)
		}
		ts, ok := e["ts"].(float64)
		if !ok {
			t.Fatalf("event missing ts: %v", e)
		}
		key := [2]int{int(e["pid"].(float64)), int(e["tid"].(float64))}
		if ts < lastTs[key] {
			t.Errorf("track %v not monotonic: ts %g after %g", key, ts, lastTs[key])
		}
		lastTs[key] = ts
	}
	if spans != 5 || metas == 0 {
		t.Errorf("spans=%d metas=%d, want 5/>0", spans, metas)
	}
}

// TestChromeTraceGolden pins the serialized form of a minimal trace: the
// format is a contract with external viewers, so changes must be deliberate.
func TestChromeTraceGolden(t *testing.T) {
	var r Recorder
	r.Hook()(0, cluster.PhaseCompute, 0, 1)
	var b bytes.Buffer
	if err := r.WriteChrome(&b, "g"); err != nil {
		t.Fatal(err)
	}
	want := `{
 "traceEvents": [
  {
   "name": "process_name",
   "ph": "M",
   "ts": 0,
   "pid": 0,
   "tid": 0,
   "args": {
    "name": "g"
   }
  },
  {
   "name": "thread_name",
   "ph": "M",
   "ts": 0,
   "pid": 0,
   "tid": 0,
   "args": {
    "name": "P0"
   }
  },
  {
   "name": "compute",
   "cat": "phase",
   "ph": "X",
   "ts": 0,
   "dur": 1000000,
   "pid": 0,
   "tid": 0
  }
 ],
 "displayTimeUnit": "ms"
}
`
	if b.String() != want {
		t.Errorf("golden mismatch:\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
	// And it round-trips through encoding/json.
	var f chromeFile
	if err := json.Unmarshal(b.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	var b2 bytes.Buffer
	enc := json.NewEncoder(&b2)
	enc.SetIndent("", " ")
	if err := enc.Encode(f); err != nil {
		t.Fatal(err)
	}
	if b2.String() != b.String() {
		t.Error("trace JSON does not round-trip through encoding/json")
	}
}

func TestChromeTraceMultiRunTracks(t *testing.T) {
	var b bytes.Buffer
	a, c := sampleRecorder(), sampleRecorder()
	if err := WriteChromeTrace(&b, NamedRecorder{"runA", a}, NamedRecorder{"runB", c}); err != nil {
		t.Fatal(err)
	}
	var f chromeFile
	if err := json.Unmarshal(b.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	pids := map[int]bool{}
	for _, e := range f.TraceEvents {
		pids[e.Pid] = true
	}
	if !pids[0] || !pids[1] {
		t.Errorf("expected process tracks 0 and 1, got %v", pids)
	}
	if !strings.Contains(b.String(), "runA") || !strings.Contains(b.String(), "runB") {
		t.Error("process names missing")
	}
}

func TestPhaseTotalAcrossOverlappingSpans(t *testing.T) {
	// Overlapping and out-of-order spans still sum their raw durations:
	// PhaseTotal is defined over recorded intervals, not wall coverage.
	var r Recorder
	hook := r.Hook()
	hook(0, cluster.PhaseCompute, 2, 5)
	hook(0, cluster.PhaseCompute, 4, 6) // overlaps the previous span
	hook(0, cluster.PhaseCompute, 0, 1) // out of order
	hook(0, cluster.PhaseComm, 1, 2)    // other phase, ignored
	hook(1, cluster.PhaseCompute, 0, 9) // other proc, ignored
	if got := r.PhaseTotal(0, cluster.PhaseCompute); got != 3+2+1 {
		t.Errorf("PhaseTotal = %g, want 6", got)
	}
	if got := r.PhaseTotal(0, cluster.PhaseComm); got != 1 {
		t.Errorf("comm PhaseTotal = %g, want 1", got)
	}
}
