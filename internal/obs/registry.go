// Package obs is the repository's unified observability layer: a
// zero-dependency metrics registry (counters, gauges, histograms with
// per-processor / per-phase labels) and a structured run journal of ordered
// JSONL events stamped with virtual time.
//
// Every instrument is nil-safe: a nil *Registry hands out nil handles, and
// every handle method no-ops on a nil receiver, so un-instrumented runs pay
// only a nil check on the hot path. The registry snapshots itself as
// exposition families (Families), the one in-memory form of a Prometheus
// text exposition: WriteFamilies renders it, ParsePromFamilies reads it
// back, Totals sums it, and every /metrics route serves it (MetricsHandler).
package obs

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name/value pair attached to a metric series.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// kind discriminates metric families; its value is the exposition's TYPE.
type kind string

const (
	kindCounter   kind = "counter"
	kindGauge     kind = "gauge"
	kindHistogram kind = "histogram"
)

// Counter is a monotonically increasing value.
type Counter struct {
	bits atomic.Uint64 // float64 bits
}

// Add increments the counter by v (v must be >= 0). No-op on nil.
func (c *Counter) Add(v float64) {
	if c == nil || v == 0 {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc increments the counter by 1. No-op on nil.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. No-op on nil.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by v. No-op on nil.
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram accumulates observations into fixed upper-bound buckets
// (cumulative, Prometheus-style: counts[i] counts observations <= Buckets[i],
// with an implicit +Inf bucket at the end).
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64 // len(bounds)+1; last is +Inf
	sum    float64
	total  uint64
}

// Observe records one sample. No-op on nil.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.total++
	h.mu.Unlock()
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// LinearBuckets returns count bounds starting at start, spaced by width.
func LinearBuckets(start, width float64, count int) []float64 {
	out := make([]float64, count)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// ExpBuckets returns count bounds starting at start, each factor× the last.
func ExpBuckets(start, factor float64, count int) []float64 {
	out := make([]float64, count)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// series is one labelled instance of a metric family.
type series struct {
	labels []Label
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
}

// family is all series sharing a metric name.
type family struct {
	help    string
	kind    kind
	buckets []float64
	series  map[string]*series // keyed by label signature
}

// Registry holds metric families. The zero value is not usable; construct
// with NewRegistry. A nil *Registry is a valid "observability off" value:
// every method no-ops and hands out nil instruments.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelSig returns the canonical signature of a label set.
func labelSig(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte(',')
	}
	return b.String()
}

// sortedLabels returns a sorted copy so equivalent label sets share a series.
func sortedLabels(labels []Label) []Label {
	out := make([]Label, len(labels))
	copy(out, labels)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// getSeries finds or creates the series for (name, labels), checking the
// family kind.
func (r *Registry) getSeries(name, help string, k kind, buckets []float64, labels []Label) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{help: help, kind: k, buckets: buckets, series: make(map[string]*series)}
		r.families[name] = f
	}
	if f.kind != k {
		panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", name, k, f.kind))
	}
	ls := sortedLabels(labels)
	sig := labelSig(ls)
	s, ok := f.series[sig]
	if !ok {
		s = &series{labels: ls}
		switch k {
		case kindCounter:
			s.ctr = &Counter{}
		case kindGauge:
			s.gauge = &Gauge{}
		case kindHistogram:
			h := &Histogram{bounds: f.buckets}
			h.counts = make([]uint64, len(f.buckets)+1)
			s.hist = h
		}
		f.series[sig] = s
	}
	return s
}

// Counter returns (creating if needed) the counter name{labels}. Nil-safe:
// a nil registry returns a nil handle whose methods no-op.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.getSeries(name, help, kindCounter, nil, labels).ctr
}

// Gauge returns (creating if needed) the gauge name{labels}. Nil-safe.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.getSeries(name, help, kindGauge, nil, labels).gauge
}

// Histogram returns (creating if needed) the histogram name{labels} with the
// given bucket upper bounds (used only on first registration; bounds must be
// sorted ascending). Nil-safe.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.getSeries(name, help, kindHistogram, buckets, labels).hist
}

// Families snapshots the registry as exposition families: families sorted
// by name, series by label signature, and each histogram series as its
// cumulative _bucket samples (le the last label, +Inf the last bucket), then
// _sum and _count. Nil-safe: a nil registry has no families.
func (r *Registry) Families() []PromFamily {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]PromFamily, len(names))
	for i, name := range names {
		f := r.families[name]
		sigs := make([]string, 0, len(f.series))
		for sig := range f.series {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		pf := PromFamily{Name: name, Help: f.help, Type: string(f.kind)}
		for _, sig := range sigs {
			s := f.series[sig]
			ls := slices.Clip(slices.Clone(s.labels))
			switch f.kind {
			case kindCounter:
				pf.Samples = append(pf.Samples, PromSample{Name: name, LabelPairs: ls, Value: s.ctr.Value()})
			case kindGauge:
				pf.Samples = append(pf.Samples, PromSample{Name: name, LabelPairs: ls, Value: s.gauge.Value()})
			case kindHistogram:
				pf.Samples = s.hist.appendSamples(pf.Samples, name, ls)
			}
		}
		out[i] = pf
	}
	return out
}

// appendSamples appends the histogram's exposition samples under name and
// labels.
func (h *Histogram) appendSamples(out []PromSample, name string, labels []Label) []PromSample {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(labels) + 1
	le := make([]Label, n*(len(h.bounds)+1)) // one array behind every bucket's label set
	cum := uint64(0)
	for i := range h.counts {
		cum += h.counts[i]
		bound := "+Inf"
		if i < len(h.bounds) {
			bound = formatVal(h.bounds[i])
		}
		ls := le[i*n : (i+1)*n : (i+1)*n]
		copy(ls, labels)
		ls[n-1] = L("le", bound)
		out = append(out, PromSample{Name: name + "_bucket", LabelPairs: ls, Value: float64(cum)})
	}
	return append(out,
		PromSample{Name: name + "_sum", LabelPairs: labels, Value: h.sum},
		PromSample{Name: name + "_count", LabelPairs: labels, Value: float64(h.total)})
}

// WriteProm renders the registry in the Prometheus text exposition format
// (see Families), so output is deterministic. Nil-safe: a nil registry
// writes nothing.
func (r *Registry) WriteProm(w io.Writer) error { return WriteFamilies(w, r.Families()) }

// Totals returns each family's value summed across its label series (see
// the package function Totals). Nil-safe: a nil registry returns nil.
func (r *Registry) Totals() map[string]float64 {
	if r == nil {
		return nil
	}
	return Totals(r.Families())
}

// DeltaLines renders the difference after-before as sorted "name value"
// lines, skipping zero deltas — a compact per-run metrics snapshot for
// experiment reports.
func DeltaLines(before, after map[string]float64) []string {
	names := make([]string, 0, len(after))
	for name := range after {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []string
	for _, name := range names {
		d := after[name] - before[name]
		if d == 0 {
			continue
		}
		out = append(out, fmt.Sprintf("%s %s", name, formatVal(d)))
	}
	return out
}
