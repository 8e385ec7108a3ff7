package core

import (
	"bytes"
	"testing"

	"specomp/internal/cluster"
	"specomp/internal/netmodel"
	"specomp/internal/obs"
)

// obsRun executes the coupled-map workload with the given sinks attached and
// returns the per-processor results.
func obsRun(t *testing.T, reg *obs.Registry, jr *obs.Journal) []Result {
	t.Helper()
	cc := cluster.Config{
		Machines: cluster.UniformMachines(4, 1000),
		Net:      netmodel.Fixed{D: 0.4},
		Seed:     7,
		Metrics:  reg,
		Journal:  jr,
	}
	cfg := Config{FW: 1, MaxIter: 12, Metrics: reg, Journal: jr}
	results, err := RunCluster(cc, cfg, func(p *cluster.Proc) App {
		return &coupledMap{p: p, r: 3.2, eps: 0.3, threshold: 1e-4, computeOp: 500, repairOp: 250}
	})
	if err != nil {
		t.Fatal(err)
	}
	return results
}

func TestEngineMetricsMatchStats(t *testing.T) {
	reg := obs.NewRegistry()
	results := obsRun(t, reg, nil)
	var made, checked, bad, repairs int
	for _, r := range results {
		made += r.Stats.SpecsMade
		checked += r.Stats.SpecsChecked
		bad += r.Stats.SpecsBad
		repairs += r.Stats.Repairs
	}
	if made == 0 {
		t.Fatal("workload made no speculations")
	}
	totals := reg.Totals()
	for _, tc := range []struct {
		name string
		want int
	}{
		{MetricSpecsMade, made},
		{MetricSpecsCheck, checked},
		{MetricSpecsBad, bad},
		{MetricRepairs, repairs},
	} {
		if got := int(totals[tc.name]); got != tc.want {
			t.Errorf("%s = %d, want %d (stats)", tc.name, got, tc.want)
		}
	}
	// The prediction-error histogram saw exactly one sample per check.
	if got := int(totals[MetricPredError+"_count"]); got != checked {
		t.Errorf("prediction_error count = %d, want %d", got, checked)
	}
	// Exposition parses and covers the engine schema.
	var b bytes.Buffer
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseProm(&b)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	names := make(map[string]bool)
	for _, s := range samples {
		names[s.Name] = true
	}
	for _, want := range []string{MetricSpecsMade, MetricSpecsBad, MetricRepairs,
		MetricIterations, cluster.MetricMsgsSent, cluster.MetricMsgLatency + "_bucket"} {
		if !names[want] {
			t.Errorf("exposition missing family %s", want)
		}
	}
}

func TestJournalByteIdenticalAcrossRuns(t *testing.T) {
	render := func() []byte {
		jr := obs.NewJournal()
		obsRun(t, nil, jr)
		var b bytes.Buffer
		if err := jr.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	a, b := render(), render()
	if len(a) == 0 {
		t.Fatal("journal is empty")
	}
	if !bytes.Equal(a, b) {
		t.Error("same seed produced different journals")
	}
}

func TestJournalRecordsEngineSchema(t *testing.T) {
	jr := obs.NewJournal()
	results := obsRun(t, nil, jr)
	var made, bad int
	for _, r := range results {
		made += r.Stats.SpecsMade
		bad += r.Stats.SpecsBad
	}
	if got := jr.Count(obs.EvSpecMade); got != made {
		t.Errorf("journal spec_made = %d, want %d", got, made)
	}
	if got := jr.Count(obs.EvSpecBad); got != bad {
		t.Errorf("journal spec_bad = %d, want %d", got, bad)
	}
	// 4 procs × 12 iterations, each with a start and an end.
	if got := jr.Count(obs.EvIterStart); got != 4*12 {
		t.Errorf("journal iter_start = %d, want 48", got)
	}
	if got := jr.Count(obs.EvIterEnd); got != 4*12 {
		t.Errorf("journal iter_end = %d, want 48", got)
	}
	// Events are stamped with non-decreasing per-processor virtual time.
	last := map[int]float64{}
	for _, e := range jr.Events() {
		if e.T < last[e.Proc] {
			t.Fatalf("proc %d time went backwards: %g after %g (%s)", e.Proc, e.T, last[e.Proc], e.Kind)
		}
		last[e.Proc] = e.T
	}
}

// TestSupersededIsObservable: a prediction a cascade replaced with the
// arrived actual shows up under its own name on every instrument — the
// counter (pre-registered at zero), the journal and Stats agree — and the
// end-of-run identity made = checked + superseded holds on all three.
func TestSupersededIsObservable(t *testing.T) {
	reg, jr := obs.NewRegistry(), obs.NewJournal()
	RegisterEngineMetrics(reg, 0)
	if v, ok := reg.Totals()[MetricSpecsSuper]; !ok || v != 0 {
		t.Fatalf("%s before the run = (%v, %v), want pre-registered at 0", MetricSpecsSuper, v, ok)
	}
	cc := uniformCluster(4, 0.25)
	cc.Metrics, cc.Journal = reg, jr
	results := runCoupled(t, cc, Config{FW: 3, MaxIter: 18, Metrics: reg, Journal: jr}, 0)
	agg := Aggregate(results)
	if agg.SpecsSuperseded == 0 {
		t.Fatal("FW=3 at zero tolerance with a latency below one compute superseded nothing")
	}
	if agg.SpecsMade != agg.SpecsChecked+agg.SpecsSuperseded {
		t.Errorf("stats: made %d != checked %d + superseded %d", agg.SpecsMade, agg.SpecsChecked, agg.SpecsSuperseded)
	}
	totals := reg.Totals()
	if got := int(totals[MetricSpecsSuper]); got != agg.SpecsSuperseded {
		t.Errorf("%s = %d, want %d (stats)", MetricSpecsSuper, got, agg.SpecsSuperseded)
	}
	if made, rest := totals[MetricSpecsMade], totals[MetricSpecsCheck]+totals[MetricSpecsSuper]; made != rest {
		t.Errorf("metrics: made %v != checked + superseded %v", made, rest)
	}
	if got := jr.Count(obs.EvSpecSuperseded); got != agg.SpecsSuperseded {
		t.Errorf("journal spec_superseded = %d, want %d (stats)", got, agg.SpecsSuperseded)
	}
	if made, rest := jr.Count(obs.EvSpecMade), jr.Count(obs.EvSpecChecked)+jr.Count(obs.EvSpecSuperseded); made != rest {
		t.Errorf("journal: made %d != checked + superseded %d", made, rest)
	}
}

// BenchmarkEngineObs measures the engine with observability off (the nil
// fast path every ordinary run takes) and on, over the same tiny workload —
// checkpointing every fourth iteration, so the checkpoint-duration histogram
// and its two clock reads are in the enabled figure, and at FW=2 with a
// latency below one compute, so repairs cascade and the superseded-prediction
// call is too. The "off" case must track the seed's performance: the only
// added work is nil checks.
func BenchmarkEngineObs(b *testing.B) {
	run := func(b *testing.B, reg *obs.Registry, jr *obs.Journal) {
		superseded := 0
		defer func() {
			if superseded == 0 {
				b.Error("workload superseded no prediction: the new call is not in the figure")
			}
		}()
		for i := 0; i < b.N; i++ {
			cc := cluster.Config{
				Machines: cluster.UniformMachines(4, 1000),
				Net:      netmodel.Fixed{D: 0.4},
				Seed:     7,
				Metrics:  reg,
				Journal:  jr,
			}
			cfg := Config{FW: 2, MaxIter: 12, Metrics: reg, Journal: jr,
				CheckpointEvery: 4, CheckpointStore: discardStore{}}
			results, err := RunCluster(cc, cfg, func(p *cluster.Proc) App {
				return &coupledMap{p: p, r: 3.2, eps: 0.3, threshold: 1e-4, computeOp: 500, repairOp: 250}
			})
			if err != nil {
				b.Fatal(err)
			}
			superseded += Aggregate(results).SpecsSuperseded
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil, nil) })
	b.Run("metrics", func(b *testing.B) { run(b, obs.NewRegistry(), nil) })
	b.Run("metrics+journal", func(b *testing.B) { run(b, obs.NewRegistry(), obs.NewJournal()) })
}
