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

// Recorder collects spans; its Hook method plugs into cluster.Config.OnSpan.
type Recorder struct {
	Spans []Span
}

// Hook returns a function suitable for cluster.Config.OnSpan.
func (r *Recorder) Hook() func(proc int, ph cluster.Phase, start, end float64) {
	return func(proc int, ph cluster.Phase, start, end float64) {
		r.Spans = append(r.Spans, Span{Proc: proc, Phase: ph, Start: start, End: end})
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
	var b strings.Builder
	fmt.Fprintf(&b, "time: 0 %s %.3fs\n", strings.Repeat("-", maxInt(0, width-14)), horizon)
	for i, row := range rows {
		fmt.Fprintf(&b, "P%-2d |%s|\n", i, row)
	}
	b.WriteString("legend: C compute, . wait-comm, s speculate, k check, R repair, o overrun\n")
	return b.String()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
