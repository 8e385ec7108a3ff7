package distnet

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"specomp/internal/faults"
	"specomp/internal/netmodel"
	"specomp/internal/obs"
	"specomp/internal/trace"
)

// TestFleetAggregation runs a real 4-node cluster (in-process goroutines,
// real TCP) with the fleet plane on and checks the whole path: nodes push
// registry snapshots over their control connections, the coordinator merges
// them, and one HTTP endpoint serves every rank's series with job/node
// labels — passing the same SelfCheck CI gates on.
func TestFleetAggregation(t *testing.T) {
	spec := RunSpec{
		App: "heat", Procs: 4, MaxIter: 40, FW: 2, Theta: 1e-3,
		Rows: 16, Cols: 8, Job: "fleettest", ObsPushMS: 25,
	}
	fleet := NewFleetObs("")
	coord, err := NewCoordinator(CoordConfig{Spec: spec, Timeout: time.Minute, Fleet: fleet, Logf: t.Logf})
	if err != nil {
		t.Fatalf("%v", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		launchNodes(t, 4, func(int) NodeConfig { return NodeConfig{Coord: coord.Addr()} })
	}()
	reports, err := coord.Wait()
	<-done
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	if len(reports) != 4 {
		t.Fatalf("got %d reports, want 4", len(reports))
	}

	if got := fleet.Job(); got != "fleettest" {
		t.Errorf("fleet job = %q, want the spec's %q", got, "fleettest")
	}
	if err := fleet.SelfCheck(4); err != nil {
		t.Fatalf("SelfCheck: %v", err)
	}

	// Every rank's final snapshot must include the wire-plane series, and the
	// fleet totals must see real traffic. A fault-free run sends every
	// message as a lone data frame: flushes, but no batch frame to observe.
	tot := fleet.Totals()
	if tot[MetricFramesSent] == 0 {
		t.Errorf("fleet saw no %s across 4 nodes", MetricFramesSent)
	}
	if tot[MetricFlushes] == 0 {
		t.Errorf("fleet saw no flushes")
	}
	if c := tot[MetricBatchOccupancy+"_count"]; c != 0 {
		t.Errorf("fault-free run observed %g batch frames, want 0", c)
	}
	if tot[MetricObsPushes] == 0 {
		t.Errorf("nodes report zero obs pushes")
	}

	// Scrape the endpoint the way Prometheus would.
	srv := httptest.NewServer(fleet.Handler())
	defer srv.Close()
	res, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("GET /metrics: status %d", res.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		MetricFleetNodes, MetricFleetPushes,
		`job="fleettest"`, `node="0"`, `node="3"`,
		MetricFlushes, MetricSendQueue,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("aggregated /metrics is missing %q", want)
		}
	}

	res, err = http.Get(srv.URL + "/fleet")
	if err != nil {
		t.Fatalf("GET /fleet: %v", err)
	}
	var st FleetStatus
	err = json.NewDecoder(res.Body).Decode(&st)
	res.Body.Close()
	if err != nil {
		t.Fatalf("/fleet JSON: %v", err)
	}
	if st.Job != "fleettest" || len(st.Nodes) != 4 {
		t.Fatalf("/fleet = job %q with %d nodes, want fleettest with 4", st.Job, len(st.Nodes))
	}
	for _, n := range st.Nodes {
		if n.Pushes == 0 || n.Series == 0 || n.Bytes == 0 {
			t.Errorf("rank %d status looks empty: %+v", n.Rank, n)
		}
	}
}

// TestFleetBatchOccupancyUnderDuplicates: the fault injector's duplicate
// copies are the traffic that batches (a copy rides with its original), and
// the occupancy histogram observes those batch frames only, so every
// observation is at least 2 messages.
func TestFleetBatchOccupancyUnderDuplicates(t *testing.T) {
	spec := RunSpec{App: "heat", Procs: 3, MaxIter: 40, FW: 2, Theta: 1e-3, Rows: 12, Cols: 8, ObsPushMS: 25}
	fleet := NewFleetObs("dups")
	coord, err := NewCoordinator(CoordConfig{Spec: spec, Timeout: time.Minute, Fleet: fleet, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	model := faults.Duplicate{Prob: 0.5, Inner: netmodel.Fixed{D: 0.0001}}
	done := make(chan struct{})
	go func() {
		defer close(done)
		launchNodes(t, spec.Procs, func(rank int) NodeConfig {
			return NodeConfig{Coord: coord.Addr(), Faults: model, FaultSeed: int64(200 + rank)}
		})
	}()
	_, err = coord.Wait()
	<-done
	if err != nil {
		t.Fatal(err)
	}
	tot := fleet.Totals()
	c, sum := tot[MetricBatchOccupancy+"_count"], tot[MetricBatchOccupancy+"_sum"]
	if c == 0 {
		t.Fatalf("duplicating run observed no batch frames")
	}
	if sum < 2*c {
		t.Errorf("batch occupancy mean %g over %g frames, want >= 2", sum/c, c)
	}
}

// TestFleetUpdateRejectsMalformed: a garbled snapshot must not evict the
// node's previous good one.
func TestFleetUpdateRejectsMalformed(t *testing.T) {
	fleet := NewFleetObs("j")
	good := []byte("# HELP m Probe.\n# TYPE m counter\nm 1\n")
	if err := fleet.Update(2, good); err != nil {
		t.Fatalf("good snapshot rejected: %v", err)
	}
	if err := fleet.Update(2, []byte("m{broken 1\n")); err == nil {
		t.Fatalf("malformed snapshot accepted")
	}
	st := fleet.Status()
	if len(st.Nodes) != 1 || st.Nodes[0].Series != 1 || st.Nodes[0].Pushes != 1 {
		t.Fatalf("malformed push disturbed the stored state: %+v", st.Nodes)
	}
}

// TestFleetUpdateRejectsReservedLabels: job and node are the labels the
// merge adds, so a snapshot that already carries either is rejected whole —
// otherwise rank 2 could render series as rank 0's and make SelfCheck count
// a rank that never pushed.
func TestFleetUpdateRejectsReservedLabels(t *testing.T) {
	fleet := NewFleetObs("j")
	for _, r := range []int{1, 2} {
		if err := fleet.Update(r, []byte("# TYPE m counter\nm 1\n")); err != nil {
			t.Fatalf("rank %d: good snapshot rejected: %v", r, err)
		}
	}
	for _, forged := range []string{
		"m{node=\"0\",job=\"x\"} 1\n",
		"m{node=\"0\"} 1\n",
		"# TYPE m counter\nm 1\nother{job=\"x\"} 2\n",
	} {
		if err := fleet.Update(2, []byte(forged)); err == nil {
			t.Errorf("snapshot %q accepted", forged)
		}
	}
	if err := fleet.SelfCheck(3); err == nil {
		t.Error("SelfCheck(3) passed although rank 0 never pushed")
	}
	if err := fleet.SelfCheck(0); err != nil {
		t.Errorf("SelfCheck on the good pushes: %v", err)
	}
	if st := fleet.Status(); st.Nodes[1].Pushes != 1 || st.Nodes[1].Series != 1 {
		t.Errorf("rejected pushes disturbed rank 2: %+v", st.Nodes[1])
	}
}

// TestFleetRefusalShowsInStatus: a refused push is counted against its rank
// with its reason in /fleet, and a rank none of whose pushes was accepted is
// not present: no series, not counted by SelfCheck or the node gauge.
func TestFleetRefusalShowsInStatus(t *testing.T) {
	fleet := NewFleetObs("j")
	if err := fleet.Update(0, []byte("# TYPE m counter\nm 1\n")); err != nil {
		t.Fatalf("good snapshot rejected: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := fleet.Update(1, []byte("m{node=\"0\"} 1\n")); err == nil {
			t.Fatal("forged snapshot accepted")
		}
	}
	st := fleet.Status()
	if len(st.Nodes) != 2 {
		t.Fatalf("status lists %d nodes, want the accepted and the refused rank: %+v", len(st.Nodes), st.Nodes)
	}
	if n := st.Nodes[0]; n.Refused != 0 || n.Refusal != "" {
		t.Errorf("rank 0 shows a refusal: %+v", n)
	}
	if n := st.Nodes[1]; n.Rank != 1 || n.Pushes != 0 || n.Refused != 2 || !strings.Contains(n.Refusal, `own label "node"`) {
		t.Errorf("rank 1 status = %+v, want 2 refusals naming the node label", n)
	}
	js, err := json.Marshal(st.Nodes[0])
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(js), "refus") {
		t.Errorf("a node without refusals renders them: %s", js)
	}
	if err := fleet.SelfCheck(2); err == nil {
		t.Error("SelfCheck(2) passed although every push of rank 1 was refused")
	}
	var out bytes.Buffer
	if err := fleet.WriteProm(&out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), `node="1"`) || !strings.Contains(out.String(), MetricFleetNodes+`{job="j"} 1`) {
		t.Errorf("the refused rank shows in the exposition:\n%s", out.String())
	}
}

// TestFleetConcurrentPushAndScrape: the coordinator's pump calls Update
// while scrapes render, total and check the same fleet, and the node side
// renders its registry while its instruments move. Run under -race.
func TestFleetConcurrentPushAndScrape(t *testing.T) {
	reg := obs.NewRegistry()
	w := newWireObs(reg, 0, 3)
	fleet := NewFleetObs("j")
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				w.noteBatch(2)
				w.link(1).observeLatency(1e-4)
				var b bytes.Buffer
				if err := reg.WriteProm(&b); err != nil {
					t.Error(err)
					return
				}
				if err := fleet.Update(rank, b.Bytes()); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	for i := 0; i < 50; i++ {
		var b bytes.Buffer
		if err := fleet.WriteProm(&b); err != nil {
			t.Fatal(err)
		}
		fleet.Totals()
		fleet.Status()
		if err := fleet.SelfCheck(0); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if err := fleet.SelfCheck(3); err != nil {
		t.Fatal(err)
	}
}

// TestFleetTraceAcrossProcesses runs a traced cluster and checks the
// headline behavior: the merged Chrome trace holds speculation flows whose
// steps come from at least two different nodes, time-aligned by the
// heartbeat clock estimates carried in the reports.
func TestFleetTraceAcrossProcesses(t *testing.T) {
	spec := RunSpec{
		App: "heat", Procs: 3, MaxIter: 30, FW: 2, Theta: 1e-3,
		Rows: 12, Cols: 8, Trace: true,
	}
	coord, err := NewCoordinator(CoordConfig{Spec: spec, Timeout: time.Minute, Logf: t.Logf})
	if err != nil {
		t.Fatalf("%v", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		launchNodes(t, 3, func(int) NodeConfig { return NodeConfig{Coord: coord.Addr()} })
	}()
	reports, err := coord.Wait()
	<-done
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}

	journals := FleetJournals(reports)
	if len(journals) != 3 {
		t.Fatalf("got %d journals, want 3 (Trace on ships every node's)", len(journals))
	}
	for _, j := range journals {
		if j.Start == 0 || len(j.Events) == 0 {
			t.Fatalf("rank %d journal empty or unstamped: start=%v events=%d", j.Rank, j.Start, len(j.Events))
		}
	}

	evs := trace.FleetChromeEvents(journals)
	flowPids := map[int]map[int]bool{} // flow id → pids touched
	for _, e := range evs {
		if e.Ph == "s" || e.Ph == "t" || e.Ph == "f" {
			if flowPids[e.ID] == nil {
				flowPids[e.ID] = map[int]bool{}
			}
			flowPids[e.ID][e.Pid] = true
		}
	}
	cross := 0
	for _, pids := range flowPids {
		if len(pids) >= 2 {
			cross++
		}
	}
	if cross == 0 {
		t.Fatalf("no speculation flow spans two processes (%d flows total)", len(flowPids))
	}
}

// TestFleetTraceOffUnburdened: without Trace the result carries no journal,
// so steady-state runs don't ship megabytes of events to the coordinator.
func TestFleetTraceOffUnburdened(t *testing.T) {
	spec := RunSpec{App: "heat", Procs: 2, MaxIter: 20, FW: 2, Theta: 1e-3, Rows: 8, Cols: 8}
	coord, err := NewCoordinator(CoordConfig{Spec: spec, Timeout: time.Minute})
	if err != nil {
		t.Fatalf("%v", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		launchNodes(t, 2, func(int) NodeConfig { return NodeConfig{Coord: coord.Addr()} })
	}()
	reports, err := coord.Wait()
	<-done
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	for _, r := range reports {
		if len(r.Journal) != 0 {
			t.Errorf("rank %d shipped %d journal events with Trace off", r.Rank, len(r.Journal))
		}
	}
	if len(FleetJournals(reports)) != 0 {
		t.Errorf("FleetJournals invented journals from untraced reports")
	}
}
