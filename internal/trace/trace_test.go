package trace

import (
	"strings"
	"testing"

	"specomp/internal/cluster"
	"specomp/internal/netmodel"
)

func TestRecorderCollectsAndTotals(t *testing.T) {
	var r Recorder
	hook := r.Hook()
	hook(0, cluster.PhaseCompute, 0, 2)
	hook(0, cluster.PhaseComm, 2, 3)
	hook(1, cluster.PhaseCompute, 0, 1.5)
	if len(r.Spans) != 3 {
		t.Fatalf("spans = %d", len(r.Spans))
	}
	if got := r.PhaseTotal(0, cluster.PhaseCompute); got != 2 {
		t.Errorf("PhaseTotal = %g, want 2", got)
	}
	if got := r.End(); got != 3 {
		t.Errorf("End = %g, want 3", got)
	}
}

func TestGanttRendersPhases(t *testing.T) {
	var r Recorder
	hook := r.Hook()
	hook(0, cluster.PhaseCompute, 0, 5)
	hook(0, cluster.PhaseComm, 5, 10)
	hook(1, cluster.PhaseSpec, 0, 2)
	hook(1, cluster.PhaseCheck, 2, 4)
	hook(1, cluster.PhaseCorrect, 4, 10)
	out := r.Gantt(2, 20, 0)
	if !strings.Contains(out, "P0 ") || !strings.Contains(out, "P1 ") {
		t.Fatalf("missing processor rows:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	var p0, p1 string
	for _, l := range lines {
		if strings.HasPrefix(l, "P0 ") {
			p0 = l
		}
		if strings.HasPrefix(l, "P1 ") {
			p1 = l
		}
	}
	// First half of P0 is compute, second half wait.
	if !strings.Contains(p0, "CCCC") || !strings.Contains(p0, "....") {
		t.Errorf("P0 row = %q", p0)
	}
	if !strings.Contains(p1, "s") || !strings.Contains(p1, "k") || !strings.Contains(p1, "R") {
		t.Errorf("P1 row = %q", p1)
	}
}

func TestGanttHandlesEmptyAndTinySpans(t *testing.T) {
	var r Recorder
	if out := r.Gantt(2, 30, 0); out != "" {
		t.Errorf("empty recorder rendered %q", out)
	}
	hook := r.Hook()
	hook(0, cluster.PhaseCompute, 0, 1e-9) // shorter than one cell
	hook(0, cluster.PhaseComm, 1e-9, 1)
	out := r.Gantt(1, 10, 0)
	if !strings.Contains(out, "C") {
		t.Errorf("tiny span not visible:\n%s", out)
	}
}

func TestGanttFromRealRun(t *testing.T) {
	var rec Recorder
	c := cluster.New(cluster.Config{
		Machines: cluster.UniformMachines(2, 100),
		Net:      netmodel.Fixed{D: 0.5},
		OnSpan:   rec.Hook(),
	})
	c.Start(func(p *cluster.Proc) {
		if p.ID() == 0 {
			p.Compute(100, cluster.PhaseCompute) // 1s
			p.Send(1, 1, 0, []float64{1})
		} else {
			p.Recv(cluster.Any, cluster.Any)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if rec.PhaseTotal(0, cluster.PhaseCompute) != 1 {
		t.Errorf("compute total = %g", rec.PhaseTotal(0, cluster.PhaseCompute))
	}
	if rec.PhaseTotal(1, cluster.PhaseComm) != 1.5 {
		t.Errorf("comm total = %g", rec.PhaseTotal(1, cluster.PhaseComm))
	}
	out := rec.Gantt(2, 40, 0)
	if !strings.Contains(out, "legend") {
		t.Error("missing legend")
	}
}
