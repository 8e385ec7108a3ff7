package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "help")
	g := r.Gauge("x", "help")
	h := r.Histogram("x_seconds", "help", LinearBuckets(0, 1, 4))
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(1)
	h.Observe(2)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil instruments accumulated values")
	}
	var b bytes.Buffer
	if err := r.WriteProm(&b); err != nil || b.Len() != 0 {
		t.Errorf("nil registry wrote %q, err %v", b.String(), err)
	}
	if r.Totals() != nil {
		t.Error("nil registry returned totals")
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("specs_total", "specs", L("proc", "0"))
	c.Inc()
	c.Add(2)
	if got := c.Value(); got != 3 {
		t.Errorf("counter = %g, want 3", got)
	}
	// Same name+labels returns the same series.
	if r.Counter("specs_total", "specs", L("proc", "0")) != c {
		t.Error("counter lookup did not dedupe")
	}
	g := r.Gauge("iter", "current iteration", L("proc", "0"))
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Errorf("gauge = %g, want 5", g.Value())
	}
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("hist count = %d, want 4", h.Count())
	}
	if h.Sum() != 55.55 {
		t.Errorf("hist sum = %g, want 55.55", h.Sum())
	}
}

func TestWritePromRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.Counter("specomp_specs_made_total", "predictions", L("proc", "1")).Add(4)
	r.Counter("specomp_specs_made_total", "predictions", L("proc", "0")).Add(2)
	r.Gauge("specomp_iteration", "current iter", L("proc", "0")).Set(9)
	r.Histogram("specomp_latency_seconds", "msg latency", []float64{0.5, 1}).Observe(0.7)
	var b bytes.Buffer
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# TYPE specomp_specs_made_total counter",
		`specomp_specs_made_total{proc="0"} 2`,
		`specomp_specs_made_total{proc="1"} 4`,
		"# TYPE specomp_iteration gauge",
		"# TYPE specomp_latency_seconds histogram",
		`specomp_latency_seconds_bucket{le="0.5"} 0`,
		`specomp_latency_seconds_bucket{le="1"} 1`,
		`specomp_latency_seconds_bucket{le="+Inf"} 1`,
		"specomp_latency_seconds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	fams, err := ParsePromFamilies(strings.NewReader(text))
	if err != nil {
		t.Fatalf("own exposition failed to parse: %v", err)
	}
	if found := Totals(fams)["specomp_specs_made_total"]; found != 6 {
		t.Errorf("parsed specs_made sum = %g, want 6", found)
	}
	// Output must be deterministic.
	var b2 bytes.Buffer
	if err := r.WriteProm(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != text {
		t.Error("two WriteProm calls differ")
	}
}

func TestParsePromRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"no_value_here\n",
		"1bad_name 3\n",
		"name}{ 3\n",
		"name{x=\"1\"} not_a_number\n",
	} {
		if _, err := ParsePromFamilies(strings.NewReader(bad)); err == nil {
			t.Errorf("accepted malformed %q", bad)
		}
	}
}

func TestTotalsAndDeltaLines(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "", L("proc", "0")).Add(1)
	r.Counter("a_total", "", L("proc", "1")).Add(2)
	before := r.Totals()
	r.Counter("a_total", "", L("proc", "0")).Add(4)
	r.Histogram("h", "", []float64{1}).Observe(0.5)
	lines := DeltaLines(before, r.Totals())
	joined := strings.Join(lines, "\n")
	for _, want := range []string{"a_total 4", "h_count 1", "h_sum 0.5"} {
		if !strings.Contains(joined, want) {
			t.Errorf("delta missing %q in %q", want, joined)
		}
	}
}

func TestJournalRecordAndJSONL(t *testing.T) {
	j := NewJournal()
	j.Record(Event{T: 0.5, Proc: 0, Kind: EvIterStart, Iter: 0, Peer: NoPeer})
	j.Record(Event{T: 1.5, Proc: 1, Kind: EvSpecMade, Iter: 1, Peer: 0})
	j.Record(Event{T: 2.0, Proc: 1, Kind: EvSpecBad, Iter: 1, Peer: 0, V: 0.25})
	if j.Len() != 3 || j.Count(EvSpecMade) != 1 {
		t.Fatalf("len=%d specs=%d", j.Len(), j.Count(EvSpecMade))
	}
	var b bytes.Buffer
	if err := j.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("jsonl lines = %d, want 3", len(lines))
	}
	if lines[0] != `{"t":0.5,"proc":0,"kind":"iter_start","iter":0,"peer":-1,"v":0}` {
		t.Errorf("unexpected line 0: %s", lines[0])
	}
	events, err := ReadJSONL(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 || events[2].V != 0.25 || events[2].Kind != EvSpecBad {
		t.Errorf("round-trip mismatch: %+v", events)
	}
}

func TestNilJournalIsInert(t *testing.T) {
	var j *Journal
	j.Record(Event{Kind: EvRepair})
	if j.Len() != 0 || j.Events() != nil || j.Count(EvRepair) != 0 {
		t.Error("nil journal accumulated events")
	}
	var b bytes.Buffer
	if err := j.WriteJSONL(&b); err != nil || b.Len() != 0 {
		t.Error("nil journal wrote output")
	}
}
