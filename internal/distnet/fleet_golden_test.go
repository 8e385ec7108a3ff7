package distnet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"testing"

	"specomp/internal/obs"
)

// goldenFleet is the fixture behind testdata/fleet.prom: three ranks push
// registry snapshots (rank 1 twice, the second replacing the first), and
// rank 3's snapshot ends in a sample with no HELP/TYPE header.
func goldenFleet(t *testing.T) *FleetObs {
	t.Helper()
	fleet := NewFleetObs("golden")
	push := func(rank int, reg *obs.Registry, tail string) {
		var b bytes.Buffer
		if err := reg.WriteProm(&b); err != nil {
			t.Fatal(err)
		}
		b.WriteString(tail)
		if err := fleet.Update(rank, b.Bytes()); err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	node := func(rank int, scale float64) *obs.Registry {
		reg := obs.NewRegistry()
		w := newWireObs(reg, rank, 4)
		w.flush[flushRecv].Inc()
		w.flush[flushMsgs].Inc()
		w.batch.Observe(2)
		w.batch.Observe(32)
		w.notePush()
		for p, lo := range w.links {
			lo.noteFrame()
			lo.observeLatency(scale * float64(p+1) * 1e-4)
			lo.setClock(scale*1e-6, 2e-4)
		}
		reg.Counter("specomp_golden_label_total", "Escaped labels.", obs.L("path", fmt.Sprintf(`c:\tmp "%d"`+"\n", rank))).Add(scale)
		return reg
	}
	push(1, node(1, 9), "")
	push(0, node(0, 1), "")
	push(1, node(1, 2), "")
	push(3, node(3, 3), "specomp_headerless_total{proc=\"3\"} 5\n")
	return fleet
}

var ageLine = regexp.MustCompile(`(?m)^(` + MetricFleetSnapshotAge + `\{[^}]*\}) .*$`)

// TestFleetExpositionGolden pins the fleet's merged exposition byte for
// byte, snapshot ages aside, and its totals.
func TestFleetExpositionGolden(t *testing.T) {
	fleet := goldenFleet(t)
	var b bytes.Buffer
	if err := fleet.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	got := ageLine.ReplaceAll(b.Bytes(), []byte("$1 AGE"))
	want, err := os.ReadFile("testdata/fleet.prom")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("fleet exposition differs from testdata/fleet.prom:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	blob, err := os.ReadFile("testdata/fleet_totals.json")
	if err != nil {
		t.Fatal(err)
	}
	var wantTot map[string]float64
	if err := json.Unmarshal(blob, &wantTot); err != nil {
		t.Fatal(err)
	}
	gotTot := fleet.Totals()
	if len(gotTot) != len(wantTot) {
		t.Errorf("totals have %d keys, want %d: %v", len(gotTot), len(wantTot), gotTot)
	}
	for k, v := range wantTot {
		if gotTot[k] != v {
			t.Errorf("totals[%s] = %v, want %v", k, gotTot[k], v)
		}
	}
}
