package distnet

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"specomp/internal/apps/heat"
	"specomp/internal/core"
	"specomp/internal/faults"
	"specomp/internal/netmodel"
	"specomp/internal/realtime"
)

// launchNodes runs p nodes in-process (goroutines, but real TCP sockets and
// the real wire protocol) against a coordinator at coordAddr.
func launchNodes(t *testing.T, p int, mk func(rank int) NodeConfig) []*NodeResult {
	t.Helper()
	results := make([]*NodeResult, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = RunNode(mk(i))
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	return results
}

// assembleHeat stitches per-rank strips back into the global field.
func assembleHeat(t *testing.T, spec RunSpec, reports []NodeReport) [][]float64 {
	t.Helper()
	field := make([][]float64, spec.Rows)
	blocks := spec.Blocks()
	for _, rep := range reports {
		lo, hi := blocks[rep.Rank][0], blocks[rep.Rank][1]
		if want := (hi - lo) * spec.Cols; len(rep.Final) != want {
			t.Fatalf("rank %d final has %d values, want %d", rep.Rank, len(rep.Final), want)
		}
		for r := lo; r < hi; r++ {
			field[r] = rep.Final[(r-lo)*spec.Cols : (r-lo+1)*spec.Cols]
		}
	}
	return field
}

func TestFourNodeHeatMatchesSerialAndRealtime(t *testing.T) {
	spec := RunSpec{App: "heat", Procs: 4, MaxIter: 60, FW: 2, Theta: 1e-3, Rows: 24, Cols: 16}
	coord, err := NewCoordinator(CoordConfig{Spec: spec, Timeout: time.Minute, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	spec = coord.Spec()

	nodeResults := launchNodes(t, spec.Procs, func(rank int) NodeConfig {
		return NodeConfig{Coord: coord.Addr(), HTTPAddr: "127.0.0.1:0"}
	})
	reports, err := coord.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != spec.Procs {
		t.Fatalf("got %d reports, want %d", len(reports), spec.Procs)
	}

	// The distributed field must match the serial reference within the
	// speculation tolerance (theta bounds each accepted prediction error).
	grid := heat.DefaultGrid(spec.Rows, spec.Cols)
	serial := grid.SerialRun(spec.MaxIter)
	field := assembleHeat(t, spec, reports)
	if d := heat.MaxDiff(field, serial); d > 0.5 {
		t.Errorf("distributed field deviates %g from serial reference", d)
	}

	// And match an equivalent in-process realtime run within the same
	// tolerance (both substrates speculate, so they agree only statistically).
	rt, err := realtime.Run(realtime.Config{Procs: spec.Procs, MaxIter: spec.MaxIter, FW: spec.FW},
		func(pid, procs int) core.App {
			return heat.NewApp(grid, spec.Blocks(), pid, spec.Theta)
		})
	if err != nil {
		t.Fatal(err)
	}
	rtField := make([][]float64, spec.Rows)
	blocks := spec.Blocks()
	for _, r := range rt {
		lo, hi := blocks[r.Proc][0], blocks[r.Proc][1]
		for row := lo; row < hi; row++ {
			rtField[row] = r.Final[(row-lo)*spec.Cols : (row-lo+1)*spec.Cols]
		}
	}
	if d := heat.MaxDiff(field, rtField); d > 0.5 {
		t.Errorf("distributed field deviates %g from realtime run", d)
	}

	// Per-node lifecycle invariants.
	specs := 0
	for i, rep := range reports {
		if rep.Rank != i {
			t.Errorf("report %d has rank %d", i, rep.Rank)
		}
		if rep.Iters != spec.MaxIter {
			t.Errorf("rank %d ran %d iters, want %d", i, rep.Iters, spec.MaxIter)
		}
		if rep.MsgsSent == 0 || rep.BytesSent == 0 {
			t.Errorf("rank %d reported no traffic (%d msgs, %d bytes)", i, rep.MsgsSent, rep.BytesSent)
		}
		specs += rep.SpecsMade
	}
	if specs == 0 {
		t.Error("no speculation happened across the whole run")
	}

	// Every node served live observability during the run; RunNode keeps the
	// endpoint up until the coordinator-confirmed shutdown, so the report's
	// HTTP field must have been a real address.
	for _, res := range nodeResults {
		if res.HTTPAddr == "" {
			t.Errorf("rank %d served no obs endpoint", res.Rank)
		}
		// The final partition crosses the wire as raw bits: what the
		// coordinator reports is exactly what the node's engine returned.
		if got, want := reports[res.Rank].Final, res.Result.Final; !slices.EqualFunc(got, want, func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b)
		}) {
			t.Errorf("rank %d: reported final differs from the node's own result", res.Rank)
		}
	}
	for _, rep := range reports {
		if rep.HTTP == "" {
			t.Errorf("rank %d reported no obs endpoint", rep.Rank)
		}
	}
}

// TestObsEndpointLive hits a node's /metrics and /journal while the run is
// in flight (the endpoint closes when RunNode returns, so the probe races
// the run; a generous MaxIter keeps the window open).
func TestObsEndpointLive(t *testing.T) {
	spec := RunSpec{App: "jacobi", Procs: 2, MaxIter: 3000, FW: 1, Theta: 1e-3, N: 32}
	coord, err := NewCoordinator(CoordConfig{Spec: spec, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	addrCh := make(chan string, spec.Procs)
	var wg sync.WaitGroup
	for i := 0; i < spec.Procs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := RunNode(NodeConfig{
				Coord:    coord.Addr(),
				HTTPAddr: "127.0.0.1:0",
				Logf: func(format string, args ...any) {
					if strings.Contains(format, "serving") {
						addrCh <- fmt.Sprintf(format, args...)
					}
				},
			})
			if err != nil {
				t.Errorf("node: %v", err)
				return
			}
			_ = res
		}()
	}

	// Scrape the first node that announces its endpoint.
	select {
	case line := <-addrCh:
		addr := line[strings.LastIndex(line, "http://"):]
		for _, path := range []string{"/metrics", "/journal"} {
			resp, err := http.Get(addr + path)
			if err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("GET %s: status %d", path, resp.StatusCode)
			}
			if path == "/metrics" && !strings.Contains(string(body), "specomp_") {
				t.Errorf("/metrics has no specomp_ series:\n%.400s", body)
			}
		}
	case <-time.After(30 * time.Second):
		t.Fatal("no node announced an obs endpoint")
	}
	if _, err := coord.Wait(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestNodesBeforeCoordinator exercises dial retry with backoff: all nodes
// launch first and must keep retrying until the coordinator appears.
func TestNodesBeforeCoordinator(t *testing.T) {
	spec := RunSpec{App: "heat", Procs: 3, MaxIter: 20, FW: 1, Theta: 1e-3, Rows: 12, Cols: 8}
	// Reserve an address, release it, and start the coordinator there later.
	c0, err := NewCoordinator(CoordConfig{Spec: spec, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	addr := c0.Addr()
	c0.Close()

	done := make(chan []*NodeResult, 1)
	go func() {
		done <- launchNodes(t, spec.Procs, func(rank int) NodeConfig {
			return NodeConfig{Coord: addr, DialTimeout: 20 * time.Second}
		})
	}()

	time.Sleep(300 * time.Millisecond) // nodes are now dialing a closed port
	coord, err := NewCoordinator(CoordConfig{Addr: addr, Spec: spec, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	reports, err := coord.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != spec.Procs {
		t.Fatalf("got %d reports", len(reports))
	}
	<-done
}

// TestCheckpointCustody runs with periodic checkpointing and asserts the
// coordinator ends the run holding a snapshot from every rank.
func TestCheckpointCustody(t *testing.T) {
	spec := RunSpec{App: "heat", Procs: 2, MaxIter: 40, FW: 1, Theta: 1e-3,
		Rows: 12, Cols: 8, CheckpointEvery: 10}
	coord, err := NewCoordinator(CoordConfig{Spec: spec, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	launchNodes(t, spec.Procs, func(rank int) NodeConfig {
		return NodeConfig{Coord: coord.Addr()}
	})
	if _, err := coord.Wait(); err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < spec.Procs; rank++ {
		blob, ok := coord.Checkpoint(rank)
		if !ok || len(blob) == 0 {
			t.Errorf("coordinator holds no checkpoint for rank %d", rank)
		}
	}
}

// TestFaultySendPath runs the distributed engine under the simulator's
// fault semantics on the socket send path — delay spikes and duplicates
// (loss-free, so no iteration can starve) — and asserts the run still
// converges on the serial answer.
func TestFaultySendPath(t *testing.T) {
	spec := RunSpec{App: "heat", Procs: 3, MaxIter: 40, FW: 2, Theta: 1e-3, Rows: 12, Cols: 8}
	coord, err := NewCoordinator(CoordConfig{Spec: spec, Timeout: 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	spec = coord.Spec()

	model := faults.Duplicate{
		Prob: 0.2,
		Inner: faults.DelaySpikes{
			Prob: 0.3, ExtraMin: 0.001, ExtraMax: 0.003, // ms-scale spikes: real on the wire, harmless overall
			Inner: netmodel.Fixed{D: 0.0002},
		},
	}
	launchNodes(t, spec.Procs, func(rank int) NodeConfig {
		return NodeConfig{Coord: coord.Addr(), Faults: model, FaultSeed: int64(100 + rank)}
	})
	reports, err := coord.Wait()
	if err != nil {
		t.Fatal(err)
	}
	serial := heat.DefaultGrid(spec.Rows, spec.Cols).SerialRun(spec.MaxIter)
	field := assembleHeat(t, spec, reports)
	if d := heat.MaxDiff(field, serial); d > 0.5 {
		t.Errorf("faulty-path field deviates %g from serial reference", d)
	}
}

// TestJacobiConvergesDistributed checks the convergence-stopper path end to
// end: all nodes must agree the system converged and on the solution.
func TestJacobiConvergesDistributed(t *testing.T) {
	spec := RunSpec{App: "jacobi", Procs: 2, MaxIter: 400, FW: 1, Theta: 1e-4,
		N: 32, Tol: 1e-9, Seed: 42}
	coord, err := NewCoordinator(CoordConfig{Spec: spec, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	launchNodes(t, spec.Procs, func(rank int) NodeConfig {
		return NodeConfig{Coord: coord.Addr()}
	})
	reports, err := coord.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reports {
		if !rep.Converged {
			t.Errorf("rank %d did not converge in %d iters", rep.Rank, rep.Iters)
		}
		for _, v := range rep.Final {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("rank %d solution contains %v", rep.Rank, v)
			}
		}
	}
}

// TestWireModesConverge runs the same heat problem under each wire-plane
// shape — batched (default) and batched+delta — with no injected delay and
// with a 1 ms netmodel.Fixed one, whose copies ride the same batches and
// delta codec, and asserts all four converge on the
// serial reference. It also checks the wire accounting in every mode: no
// message is held across an iteration, so
// in a fault-free run one broadcast is one frame per peer — FramesSent is
// MsgsSent plus beacons, never less, and exactly MsgsSent when the run ends
// before the first beacon is due — and delivery-latency percentiles are sane.
func TestWireModesConverge(t *testing.T) {
	modes := map[string]WireSpec{
		"batched": {},
		"delta":   {Delta: true},
	}
	for name, wire := range modes {
		for _, delay := range []float64{0, 0.001} {
			if delay > 0 {
				name += "+1ms"
			}
			t.Run(name, func(t *testing.T) {
				spec := RunSpec{App: "heat", Procs: 4, MaxIter: 60, FW: 2, Theta: 1e-3,
					Rows: 24, Cols: 16, Wire: wire}
				began := time.Now()
				coord, err := NewCoordinator(CoordConfig{Spec: spec, Timeout: time.Minute})
				if err != nil {
					t.Fatal(err)
				}
				defer coord.Close()
				spec = coord.Spec()
				const beaconEvery = time.Second
				launchNodes(t, spec.Procs, func(rank int) NodeConfig {
					cfg := NodeConfig{Coord: coord.Addr(), HeartbeatEvery: beaconEvery}
					if delay > 0 {
						cfg.Faults = netmodel.Fixed{D: delay}
					}
					return cfg
				})
				reports, err := coord.Wait()
				if err != nil {
					t.Fatal(err)
				}
				// No link existed for a whole beacon interval: no beacons.
				noBeacons := time.Since(began) < beaconEvery
				serial := heat.DefaultGrid(spec.Rows, spec.Cols).SerialRun(spec.MaxIter)
				field := assembleHeat(t, spec, reports)
				if d := heat.MaxDiff(field, serial); d > 0.5 {
					t.Errorf("field deviates %g from serial reference", d)
				}
				for _, rep := range reports {
					if rep.MsgsRecvd == 0 {
						t.Errorf("rank %d delivered no messages", rep.Rank)
					}
					if rep.FramesSent == 0 {
						t.Errorf("rank %d reported no frames", rep.Rank)
					}
					if rep.FramesSent < rep.MsgsSent || (noBeacons && rep.FramesSent != rep.MsgsSent) {
						t.Errorf("rank %d sent %d frames for %d messages (beacons possible: %v): a message was held across an iteration",
							rep.Rank, rep.FramesSent, rep.MsgsSent, !noBeacons)
					}
					// Loopback deliveries can be faster than the send-timestamp
					// clock resolution, so p50 may legitimately clamp to zero;
					// ordering and non-negativity must still hold.
					if rep.LatP50Sec < 0 || rep.LatP99Sec < rep.LatP50Sec {
						t.Errorf("rank %d latency percentiles implausible: p50=%g p99=%g",
							rep.Rank, rep.LatP50Sec, rep.LatP99Sec)
					}
				}
			})
		}
	}
}

// TestConfigBlobWithRetiredWireKnob: a coordinator from a build that still
// had the wire knobs linger_us, no_batch and max_batch_* hands out config
// blobs naming them; decodeConfig ignores the knobs and keeps the rest.
func TestConfigBlobWithRetiredWireKnob(t *testing.T) {
	blob := []byte(`{"rank":1,"peers":["a","b"],"spec":{"app":"heat","procs":2,"max_iter":10,` +
		`"wire":{"delta":true,"no_batch":false,"max_batch_msgs":32,"max_batch_bytes":49152,"linger_us":150}}}`)
	wc, err := decodeConfig(blob)
	if err != nil {
		t.Fatalf("config blob carrying retired wire knobs: %v", err)
	}
	if want := (WireSpec{Delta: true}); wc.Rank != 1 || wc.Spec.Wire != want {
		t.Fatalf("decoded rank %d wire %+v, want rank 1 wire %+v", wc.Rank, wc.Spec.Wire, want)
	}
}

// TestRunSpecValidation covers Normalize's rejection paths.
func TestRunSpecValidation(t *testing.T) {
	bad := []RunSpec{
		{App: "nosuch"},
		{App: "heat", Procs: 8, Rows: 4},
		{App: "jacobi", Procs: 80, N: 40},
		{FW: -1},
	}
	for i, s := range bad {
		if err := s.Normalize(); err == nil {
			t.Errorf("spec %d normalized without error: %+v", i, s)
		}
	}
	var def RunSpec
	if err := def.Normalize(); err != nil {
		t.Fatalf("zero spec: %v", err)
	}
	if def.App != "heat" || def.Procs != 4 || def.MaxIter != 200 {
		t.Errorf("unexpected defaults: %+v", def)
	}
}
