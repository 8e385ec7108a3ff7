// Package trace records per-processor phase intervals from a simulated run
// and renders them as ASCII Gantt timelines — the reproduction medium for
// the paper's Figure 2 (speculation good/bad vs blocking) and Figure 4
// (forward windows under a transient delay).
package trace

import (
	"fmt"
	"sort"
	"strings"

	"specomp/internal/cluster"
)

// Span is one interval of virtual time a processor spent in a phase.
type Span struct {
	Proc  int
	Phase cluster.Phase
	Start float64
	End   float64
}

// Event is a point occurrence on a processor's timeline: a reliable-layer
// retransmission ("retrans"), a suppressed duplicate ("dup"), an abandoned
// message ("giveup"), or an engine degradation mark ("overrun",
// "reconcile").
type Event struct {
	Proc int
	Kind string
	Time float64
}

// Recorder collects spans and point events; its Hook and EventHook methods
// plug into cluster.Config.OnSpan and cluster.Config.OnEvent.
type Recorder struct {
	Spans  []Span
	Events []Event
}

// Hook returns a function suitable for cluster.Config.OnSpan.
func (r *Recorder) Hook() func(proc int, ph cluster.Phase, start, end float64) {
	return func(proc int, ph cluster.Phase, start, end float64) {
		r.Spans = append(r.Spans, Span{Proc: proc, Phase: ph, Start: start, End: end})
	}
}

// EventHook returns a function suitable for cluster.Config.OnEvent.
func (r *Recorder) EventHook() func(proc int, kind string, t float64) {
	return func(proc int, kind string, t float64) {
		r.Events = append(r.Events, Event{Proc: proc, Kind: kind, Time: t})
	}
}

// End returns the latest span end time.
func (r *Recorder) End() float64 {
	var worst float64
	for _, s := range r.Spans {
		if s.End > worst {
			worst = s.End
		}
	}
	return worst
}

// PhaseTotal sums the recorded time processor proc spent in ph.
func (r *Recorder) PhaseTotal(proc int, ph cluster.Phase) float64 {
	var sum float64
	for _, s := range r.Spans {
		if s.Proc == proc && s.Phase == ph {
			sum += s.End - s.Start
		}
	}
	return sum
}

// glyph maps phases to timeline characters: C compute, . waiting on
// communication, s speculate, k check, R repair, o overrun (compute past
// the forward window in degraded mode).
func glyph(ph cluster.Phase) byte {
	switch ph {
	case cluster.PhaseCompute:
		return 'C'
	case cluster.PhaseComm:
		return '.'
	case cluster.PhaseSpec:
		return 's'
	case cluster.PhaseCheck:
		return 'k'
	case cluster.PhaseCorrect:
		return 'R'
	case cluster.PhaseOverrun:
		return 'o'
	default:
		return ' '
	}
}

// Gantt renders the recorded spans as one timeline row per processor,
// `width` characters across the interval [0, horizon] (horizon defaults to
// the last span end). Later spans overwrite earlier ones in a cell;
// idle time is left blank.
func (r *Recorder) Gantt(procs, width int, horizon float64) string {
	if horizon <= 0 {
		horizon = r.End()
	}
	if horizon <= 0 || width <= 0 {
		return ""
	}
	rows := make([][]byte, procs)
	for i := range rows {
		rows[i] = []byte(strings.Repeat(" ", width))
	}
	spans := make([]Span, len(r.Spans))
	copy(spans, r.Spans)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	for _, s := range spans {
		if s.Proc < 0 || s.Proc >= procs {
			continue
		}
		lo := int(s.Start / horizon * float64(width))
		hi := int(s.End / horizon * float64(width))
		if hi == lo {
			hi = lo + 1
		}
		if lo < 0 {
			lo = 0
		}
		if hi > width {
			hi = width
		}
		g := glyph(s.Phase)
		for c := lo; c < hi; c++ {
			rows[s.Proc][c] = g
		}
	}
	// Point events overlay the phase glyphs so retransmissions and overruns
	// stand out on the row where they happened.
	for _, e := range r.Events {
		if e.Proc < 0 || e.Proc >= procs {
			continue
		}
		c := int(e.Time / horizon * float64(width))
		if c < 0 || e.Time > horizon {
			continue
		}
		if c >= width {
			// An event exactly at t == horizon maps to cell `width`; clamp to
			// the last cell so end-of-run faults stay visible.
			c = width - 1
		}
		rows[e.Proc][c] = '!'
	}
	var b strings.Builder
	fmt.Fprintf(&b, "time: 0 %s %.3fs\n", strings.Repeat("-", maxInt(0, width-14)), horizon)
	for i, row := range rows {
		fmt.Fprintf(&b, "P%-2d |%s|\n", i, row)
	}
	b.WriteString("legend: C compute, . wait-comm, s speculate, k check, R repair, o overrun, ! fault event\n")
	return b.String()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
