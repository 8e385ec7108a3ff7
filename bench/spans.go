package main

import (
	"sort"
	"sync"
	"time"
)

// span is one bench-side interval around a call into a layer. Spans of one
// unit (one fleet run, one job) share its Unit id; Parent is the id of the
// span that caused this one, -1 for a root.
type span struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	Parent int     `json:"parent"`
	Unit   int     `json:"unit"`
	Start  float64 `json:"start_s"` // seconds since the recorder was created
	End    float64 `json:"end_s"`
	Self   float64 `json:"self_s"` // filled by finish
}

// spanRec keeps spans in memory until the program ends. A nil *spanRec
// records nothing, so untraced units pay one nil check per boundary.
type spanRec struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanRec() *spanRec { return &spanRec{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil recorder).
func (r *spanRec) begin(name string, parent, unit int) int {
	if r == nil {
		return -1
	}
	return r.add(name, parent, unit, time.Now(), time.Time{})
}

// end closes the span begin returned.
func (r *spanRec) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.t0).Seconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// add records a span whose bounds were observed elsewhere (a job's phases are
// read off the scheduler's timestamps after the fact). A zero end leaves the
// span open for end.
func (r *spanRec) add(name string, parent, unit int, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := span{ID: len(r.spans), Name: name, Parent: parent, Unit: unit, Start: start.Sub(r.t0).Seconds()}
	if !end.IsZero() {
		s.End = end.Sub(r.t0).Seconds()
	}
	r.spans = append(r.spans, s)
	return s.ID
}

// finish computes every span's self time and returns the spans.
func (r *spanRec) finish() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	selfTimes(r.spans)
	return r.spans
}

// selfTimes sets each span's Self to its duration minus the part of its
// interval that its direct children cover (overlapping children are counted
// once, and a child is clipped to its parent).
func selfTimes(spans []span) {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range spans {
		p := &spans[i]
		kids := children[p.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := 0.0, p.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > p.End {
				hi = p.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		p.Self = (p.End - p.Start) - covered
	}
}

// selfByName sums self time per span name — the per-layer view of a trace.
func selfByName(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += s.Self
	}
	return out
}
