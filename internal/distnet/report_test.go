package distnet

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"specomp/internal/obs"
)

// fullReport is a NodeReport with every exported field set to a distinct
// non-zero value.
func fullReport() NodeReport {
	return NodeReport{
		Rank: 99, Addr: "body-addr", HTTP: "127.0.0.1:9", Converged: true,
		Iters: 2, SpecsMade: 3, SpecsBad: 4, Repairs: 5, Overruns: 6,
		WallSec: 7.5, CommSec: 8.5, MsgsSent: 9, BytesSent: 10,
		SpecsSuperseded: 11, Epoch: 12, Restores: 13,
		MsgsRecvd: 14, FramesSent: 15, LatP50Sec: 16.5, LatP99Sec: 17.5, AllocsPerMsg: 18.5,
		StartUnix: 19.5, ClockOff: []float64{20.5, 21.5}, ClockRTT: []float64{22.5, 23.5},
		Journal:      []obs.Event{{T: 24.5, Proc: 25, Kind: obs.EvDup, Iter: 26, Peer: 27, V: 28.5}},
		Final:        []float64{29.5},
		LaunchStamps: LaunchStamps{JoinedUnix: 30.5, MeshUnix: 31.5, ReleasedUnix: 32.5},
	}
}

// zeroFields names every exported field of v (descending into embedded
// structs) that holds its zero value.
func zeroFields(v reflect.Value) []string {
	var zero []string
	for i := 0; i < v.NumField(); i++ {
		f, fv := v.Type().Field(i), v.Field(i)
		switch {
		case !f.IsExported():
		case f.Anonymous && fv.Kind() == reflect.Struct:
			zero = append(zero, zeroFields(fv)...)
		case fv.IsZero():
			zero = append(zero, f.Name)
		}
	}
	return zero
}

// TestNodeReportRoundTrip: what a node puts in its FrameResult body is what
// Coordinator.Wait returns, field for field, except the three fields the
// coordinator does not take from the body — Rank (the connection), Addr (the
// hello) and Final (the frame's raw tail).
func TestNodeReportRoundTrip(t *testing.T) {
	if z := zeroFields(reflect.ValueOf(fullReport())); len(z) > 0 {
		t.Fatalf("fullReport leaves %v zero; set every field", z)
	}
	coord := scriptedCoordinator(t, 2, time.Minute, nil)
	nodes := scriptedFleet(t, coord)
	tail := []float64{-1, 0.25}
	for _, n := range nodes {
		n.send(Frame{Type: FrameResult, Blob: encodeJSON(fullReport()), Final: tail})
	}
	for _, n := range nodes {
		n.expect(FrameShutdown)
		n.conn.Close()
	}
	reports, err := coord.Wait()
	if err != nil || len(reports) != len(nodes) {
		t.Fatalf("%d reports, err %v", len(reports), err)
	}
	for rank, got := range reports {
		want := fullReport()
		want.Rank, want.Final = rank, tail
		for _, n := range nodes {
			if n.rank == rank {
				want.Addr = n.conn.LocalAddr().String()
			}
		}
		if !reflect.DeepEqual(got, want) {
			g, _ := json.Marshal(got)
			w, _ := json.Marshal(want)
			t.Errorf("rank %d:\n got %s\nwant %s", rank, g, w)
		}
	}
}
