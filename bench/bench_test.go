package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sync"
	"testing"
	"time"

	"specomp/internal/distnet"
	"specomp/internal/sched"
)

// TestMain honours the node re-exec switch: the svc-jobs children of a test
// run are the test binary itself.
func TestMain(m *testing.M) {
	if coord := os.Getenv(nodeEnv); coord != "" {
		os.Exit(runNode(coord))
	}
	os.Exit(m.Run())
}

func TestMedianAndQuantile(t *testing.T) {
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{3}, 0.5, 3},
		{[]float64{5, 1, 3}, 0.5, 3},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 0.75, 4},
		{[]float64{1, 2, 3, 4, 5}, 1, 5},
		{[]float64{10, 20}, 0.25, 12.5},
	}
	for _, c := range cases {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %g) = %g, want %g", c.xs, c.q, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

// TestTailPercentile pins the rule "the highest percentile with at least ten
// samples beyond it".
func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{5, 0, false}, {39, 0, false}, {40, 75, true}, {99, 75, true},
		{100, 90, true}, {199, 90, true}, {200, 95, true}, {1000, 99, true}, {10000, 99.9, true},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if ok != c.ok || p != c.want {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, p, ok, c.want, c.ok)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "unit", Parent: -1, Start: 0, End: 10},
		{ID: 1, Name: "a", Parent: 0, Start: 1, End: 3},
		{ID: 2, Name: "b", Parent: 0, Start: 2, End: 5},  // overlaps a: [1,5] counted once
		{ID: 3, Name: "c", Parent: 0, Start: 8, End: 12}, // clipped to the parent's end
		{ID: 4, Name: "a", Parent: 2, Start: 2, End: 3},  // grandchild: only b's self time shrinks
	}
	selfTimes(spans)
	want := []float64{4, 2, 2, 4, 1}
	for i, w := range want {
		if math.Abs(spans[i].Self-w) > 1e-12 {
			t.Errorf("span %d (%s) self = %g, want %g", i, spans[i].Name, spans[i].Self, w)
		}
	}
	if got := selfByName(spans)["a"]; math.Abs(got-3) > 1e-12 {
		t.Errorf("self time of name a = %g, want 3", got)
	}

	rec := newSpanRec()
	root := rec.begin("unit", -1, 7)
	child := rec.begin("coord.new", root, 7)
	rec.end(child)
	rec.end(root)
	out := rec.finish()
	if len(out) != 2 || out[1].Parent != root || out[1].Unit != 7 || out[0].End < out[1].End {
		t.Errorf("recorded spans are inconsistent: %+v", out)
	}
	var off *spanRec
	off.end(off.begin("x", -1, 0)) // a nil recorder records nothing and does not panic
}

func TestCompareSets(t *testing.T) {
	set := func(tts float64) []*passResult {
		m := newMetricSet(endToEnd)
		m.set("tts_s", tts)
		m.set("setup_s", 0.05)
		m.set("alloc_mb", 10)
		return []*passResult{{Name: "lat-spec", Metrics: m.export()}}
	}
	rows := compareSets(set(1.0), set(1.04))
	if len(rows) != len(endToEnd) {
		t.Fatalf("got %d rows, want %d", len(rows), len(endToEnd))
	}
	for _, r := range rows {
		if !r.Within {
			t.Errorf("%s: %+.3f judged outside bound %.2f", r.Metric, r.RelDiff, r.Bound)
		}
	}
	for _, r := range compareSets(set(1.0), set(1.5)) {
		if r.Metric == "tts_s" && r.Within {
			t.Errorf("a 50%% difference in tts_s passed its bound")
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []fileMetric `json:"end_to_end"`
	PerLayer []fileMetric `json:"per_layer"`
}

type fileMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkFileMatchesHarness keeps BENCHMARK.json and the tables in
// metrics.go and workloads.go in step, and inside the driver's limits.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks key %q", k)
		}
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly 6", len(keys))
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d outside [1, 60]", bf.RunSeconds)
	}

	all := workloads(false)
	if len(all) < 2 || len(all) > 8 || len(bf.Workloads) != len(all) {
		t.Fatalf("%d workloads in the file, %d in the harness; want the same count in [2, 8]", len(bf.Workloads), len(all))
	}
	for i, w := range all {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %q (%q), harness has %q (%q)", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || !nameRE.MatchString(w.name) {
			t.Errorf("workload %q: name or why outside the driver's limits", w.name)
		}
	}

	seen := make(map[string]bool)
	check := func(kind string, file []fileMetric, defs []metricDef, limit int, bounded bool) {
		if len(defs) < 1 || len(defs) > limit || len(file) != len(defs) {
			t.Fatalf("%s: %d metrics in the file, %d in the harness; want the same count in [1, %d]", kind, len(file), len(defs), limit)
		}
		for i, d := range defs {
			f := file[i]
			if f.Name != d.Name || f.Unit != d.Unit || f.Better != d.Better {
				t.Errorf("%s %d: file has %+v, harness has %+v", kind, i, f, d)
			}
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
				t.Errorf("%s %q: name, unit or direction outside the driver's limits", kind, d.Name)
			}
			if seen[d.Name] {
				t.Errorf("metric name %q used twice", d.Name)
			}
			seen[d.Name] = true
			switch {
			case bounded && (f.Bound == nil || *f.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s %q: bound must be in (0, 0.25] and equal in file and harness", kind, d.Name)
			case !bounded && f.Bound != nil:
				t.Errorf("%s %q: per-layer metrics carry no bound", kind, d.Name)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, 16, true)
	check("per_layer", bf.PerLayer, perLayer, 128, false)
	if !seen["setup_s"] {
		t.Error("no setup_s among the end-to-end metrics")
	}
}

// TestResultLineRoundTrip checks the object the driver reads: exactly four
// keys, and every metric of the table present with its unit.
func TestResultLineRoundTrip(t *testing.T) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		m := newMetricSet(defs)
		m.set(defs[0].Name, 1.25)
		res := &passResult{Attempted: 7, Failed: 0, Samples: 7, Metrics: m.export()}
		var got map[string]json.RawMessage
		if err := json.Unmarshal(resultLine(res), &got); err != nil {
			t.Fatal(err)
		}
		if len(got) != 4 {
			t.Errorf("result line has %d keys, want correct, attempted, failed, metrics", len(got))
		}
		var correct bool
		var metrics map[string]value
		if err := json.Unmarshal(got["correct"], &correct); err != nil || !correct {
			t.Errorf("correct = %s, want true", got["correct"])
		}
		if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(defs) {
			t.Errorf("%d metrics in the line, want %d", len(metrics), len(defs))
		}
		for _, d := range defs {
			if metrics[d.Name].Unit != d.Unit {
				t.Errorf("metric %q: unit %q, want %q", d.Name, metrics[d.Name].Unit, d.Unit)
			}
		}
		if metrics[defs[0].Name].Value != 1.25 {
			t.Errorf("value did not survive the round trip: %+v", metrics[defs[0].Name])
		}
	}
	failed := &passResult{Attempted: 3, Failed: 1, Samples: 2, Metrics: newMetricSet(endToEnd).export()}
	var got struct{ Correct bool }
	if err := json.Unmarshal(resultLine(failed), &got); err != nil || got.Correct {
		t.Errorf("a pass with a failed unit reads correct=%v (err %v)", got.Correct, err)
	}
}

// TestNodeReexecSwitch launches two node processes through the scheduler's
// launcher — this test binary with the switch set — and has them complete a
// run against an in-process coordinator.
func TestNodeReexecSwitch(t *testing.T) {
	launch, err := nodeLauncher()
	if err != nil {
		t.Fatal(err)
	}
	coord, err := distnet.NewCoordinator(distnet.CoordConfig{
		Spec:    distnet.RunSpec{App: "heat", Procs: 2, Rows: 8, Cols: 8, MaxIter: 5},
		Timeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	var wg sync.WaitGroup
	for slot := 0; slot < 2; slot++ {
		cmd, err := launch(sched.LaunchInfo{JobID: "t", Slot: slot, Coord: coord.Addr()})
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := cmd.Wait(); err != nil {
				t.Errorf("node process: %v", err)
			}
		}()
	}
	reports, err := coord.Wait()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 || reports[0].Iters != 5 {
		t.Errorf("got %d reports, first at %d iterations; want 2 at 5", len(reports), reports[0].Iters)
	}
}

// TestShortSmoke runs every workload at toy size through both passes and the
// verifier.
func TestShortSmoke(t *testing.T) {
	opts := options{seed: 1, reps: 2, short: true, outDir: t.TempDir()}
	for _, w := range workloads(true) {
		w := w
		t.Run(w.name, func(t *testing.T) {
			res, err := runUntraced(w, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Samples != opts.reps {
				t.Fatalf("untraced: %d samples, %d failed: %v", res.Samples, res.Failed, res.Failures)
			}
			for _, d := range endToEnd {
				if v := res.Metrics[d.Name].Value; !(v > 0) {
					t.Errorf("%s = %g, want a positive value", d.Name, v)
				}
			}

			traced, err := runTraced(w, opts)
			if err != nil {
				t.Fatal(err)
			}
			if traced.Failed != 0 || traced.Samples != opts.reps {
				t.Fatalf("traced: %d samples, %d failed: %v", traced.Samples, traced.Failed, traced.Failures)
			}
			if len(traced.Metrics) != len(perLayer) {
				t.Errorf("%d per-layer metrics, want %d", len(traced.Metrics), len(perLayer))
			}
			for _, name := range []string{"apps.compute_us", "core.iter_us", "distnet.rtt_us", "checkpoint.save_us", "obs.journal_events", "run.cpu_s"} {
				if v := traced.Metrics[name].Value; !(v > 0) {
					t.Errorf("%s = %g, want a positive value", name, v)
				}
			}
			if len(traced.spans) == 0 {
				t.Error("the traced pass recorded no spans")
			}
			if w.on == onSched {
				sum := 0.0
				for _, name := range []string{"sched.wait_ms", "sched.launch_ms", "sched.run_ms", "sched.finish_ms"} {
					sum += traced.Metrics[name].Value
				}
				sum += traced.Metrics["sched.submit_us"].Value / 1e3
				if gap := traced.Metrics["run.unattributed_share"].Value; math.Abs(gap) > 0.05 || !(sum > 0) {
					t.Errorf("job phases sum to %g ms, leaving %.1f%% of tts unattributed; want within 5%%", sum, 100*gap)
				}
			}
		})
	}
}
