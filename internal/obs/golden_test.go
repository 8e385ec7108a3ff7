package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// goldenRegistry is the fixture behind testdata/registry.prom: counters,
// gauges and histograms, labelled and unlabelled series, an observation past
// the last bound (the +Inf bucket), a fractional sum, and a label value
// holding all three escapable characters.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("specomp_golden_total", "A labelled counter.", L("proc", "1")).Add(4)
	r.Counter("specomp_golden_total", "A labelled counter.", L("proc", "0")).Add(2)
	r.Counter("specomp_golden_total", "A labelled counter.", L("proc", "2"), L("peer", `back\slash "quoted"`+"\nnewline")).Add(1)
	r.Counter("specomp_unlabelled_total", "An unlabelled counter.").Add(7)
	r.Counter("specomp_nohelp_total", "").Inc()
	r.Gauge("specomp_golden_gauge", "A gauge.", L("proc", "0")).Set(-2.5)
	r.Gauge("specomp_golden_gauge", "A gauge.", L("proc", "1")).Set(1e17)
	r.Gauge("specomp_zero_gauge", "An unset gauge.")
	h := r.Histogram("specomp_golden_seconds", "A histogram.", []float64{0.001, 0.5, 2}, L("proc", "0"), L("phase", "run"))
	for _, v := range []float64{0.0005, 0.25, 0.75, 3, 40} {
		h.Observe(v)
	}
	r.Histogram("specomp_golden_seconds", "A histogram.", []float64{0.001, 0.5, 2}, L("proc", "1"), L("phase", "run")).Observe(0.1)
	r.Histogram("specomp_plain_seconds", "An unlabelled histogram.", ExpBuckets(1e-5, 2, 4)).Observe(1e-4)
	return r
}

// TestRegistryExpositionGolden pins the registry's exposition byte for byte
// (families by name, series by label signature, le last) and its totals.
func TestRegistryExpositionGolden(t *testing.T) {
	r := goldenRegistry()
	var b bytes.Buffer
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/registry.prom")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Errorf("exposition differs from testdata/registry.prom:\n--- got ---\n%s\n--- want ---\n%s", b.Bytes(), want)
	}
	blob, err := os.ReadFile("testdata/registry_totals.json")
	if err != nil {
		t.Fatal(err)
	}
	var wantTot map[string]float64
	if err := json.Unmarshal(blob, &wantTot); err != nil {
		t.Fatal(err)
	}
	got := r.Totals()
	if len(got) != len(wantTot) {
		t.Errorf("totals have %d keys, want %d: %v", len(got), len(wantTot), got)
	}
	for k, v := range wantTot {
		if got[k] != v {
			t.Errorf("totals[%s] = %v, want %v", k, got[k], v)
		}
	}
}
