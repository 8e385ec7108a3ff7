package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"specomp/internal/checkpoint"
	"specomp/internal/cluster"
	"specomp/internal/faults"
	"specomp/internal/netmodel"
	"specomp/internal/obs"
)

// The golden-journal fixtures pin the engine's externally observable
// behaviour across refactors: for a fixed seed, the structured run journal
// (event kinds, iteration/peer stamps, virtual timestamps, checkpoint byte
// counts) must stay byte-identical. The fixtures were generated before the
// value-plane decomposition and have held through every engine refactor
// since, so any change that silently reorders events, changes an op charge,
// or perturbs checkpoint encoding fails here.
//
// Regenerate intentionally with:
//
//	go test ./internal/core -run TestGoldenJournals -update-golden
//
// and, before doing so, make the change reviewable: -golden-summary prints
// each committed fixture beside a fresh run (bytes, final virtual time, events
// by kind) instead of comparing bytes (make golden-summary).

var (
	updateGolden  = flag.Bool("update-golden", false, "rewrite journal golden fixtures")
	goldenSummary = flag.Bool("golden-summary", false, "print committed vs fresh fixture summaries instead of comparing bytes")
)

type goldenCase struct {
	name      string
	cc        func() cluster.Config
	cfg       func() Config
	threshold float64
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{
			// The plain speculative pipeline: FW=1, occasional repairs.
			name: "fw1",
			cc: func() cluster.Config {
				return cluster.Config{
					Machines: cluster.UniformMachines(4, 1000),
					Net:      netmodel.Fixed{D: 0.4},
					Seed:     7,
				}
			},
			cfg:       func() Config { return Config{FW: 1, MaxIter: 12} },
			threshold: 1e-4,
		},
		{
			// Deep forward window with a zero tolerance: every imperfect
			// speculation repairs and cascades through the pipeline.
			name: "fw3-cascade",
			cc: func() cluster.Config {
				return cluster.Config{
					Machines: cluster.UniformMachines(4, 1000),
					Net:      netmodel.Fixed{D: 0.25},
					Seed:     11,
				}
			},
			cfg:       func() Config { return Config{FW: 3, MaxIter: 18} },
			threshold: 0,
		},
		{
			// Graceful degradation: a transient spike on one link forces
			// deadline expiries, overruns and reconciliations.
			name: "degrade",
			cc: func() cluster.Config {
				return cluster.Config{
					Machines: cluster.UniformMachines(3, 1000),
					Net: netmodel.TransientSpike{
						Inner: netmodel.Fixed{D: 0.05},
						Src:   0, Dst: 1,
						From: 0.5, Until: 2.0, Extra: 4,
					},
					Seed: 3,
				}
			},
			cfg:       func() Config { return Config{FW: 2, MaxIter: 20, Deadline: 0.3} },
			threshold: 0.01,
		},
		{
			// Crash/restart recovery: checkpoints (whose encoded byte counts
			// land in the journal), a restore, rejoin service and catch-up.
			name: "crash",
			cc: func() cluster.Config {
				return cluster.Config{
					Machines:     cluster.UniformMachines(4, 1000),
					Net:          netmodel.Fixed{D: 0.02},
					Reliable:     true,
					RetryTimeout: 0.5,
					Seed:         19,
					Crashes:      faults.CrashSchedule{{Proc: 2, At: 8, Downtime: 2}},
				}
			},
			cfg: func() Config {
				return Config{
					FW:              1,
					MaxIter:         60,
					Deadline:        0.3,
					CheckpointEvery: 5,
					CheckpointStore: checkpoint.NewMemStore(),
					CheckpointOps:   50,
				}
			},
			threshold: 0.02,
		},
	}
}

// goldenJournal runs one golden case (optionally wrapping its app, and on
// RunCluster unless run is given) and returns the serialized journal.
func goldenJournal(t *testing.T, tc goldenCase, wrap func(App) App, run func(cluster.Config, Config, Factory) ([]Result, error)) []byte {
	t.Helper()
	if run == nil {
		run = RunCluster
	}
	jr := obs.NewJournal()
	cc, cfg := tc.cc(), tc.cfg()
	cc.Journal, cfg.Journal = jr, jr
	_, err := run(cc, cfg, func(p *cluster.Proc) App {
		var app App = &coupledMap{p: p, r: 3.2, eps: 0.3, threshold: tc.threshold, computeOp: 500, repairOp: 250}
		if wrap != nil {
			app = wrap(app)
		}
		return app
	})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := jr.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestGoldenJournals(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			got := goldenJournal(t, tc, nil, nil)
			if len(got) == 0 {
				t.Fatal("empty journal")
			}
			path := filepath.Join("testdata", "journal_"+tc.name+".jsonl")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture (run with -update-golden): %v", err)
			}
			if *goldenSummary {
				t.Logf("\n%s", summaryTable(tc.name, summarize(t, want), summarize(t, got)))
				return
			}
			if !bytes.Equal(got, want) {
				t.Errorf("journal diverged from golden fixture %s: got %d bytes, want %d; "+
					"the refactored engine is not byte-identical to the seeded baseline",
					path, len(got), len(want))
				diffAt := 0
				for diffAt < len(got) && diffAt < len(want) && got[diffAt] == want[diffAt] {
					diffAt++
				}
				lo := max(diffAt-120, 0)
				t.Logf("first divergence at byte %d\n got: …%s…\nwant: …%s…", diffAt,
					got[lo:min(diffAt+120, len(got))], want[lo:min(diffAt+120, len(want))])
			}
		})
	}
}

// journalSummary is what a reviewer compares when a fixture is regenerated.
type journalSummary struct {
	bytes int
	end   float64 // virtual time of the last event
	kinds map[string]int
}

func summarize(t *testing.T, journal []byte) journalSummary {
	t.Helper()
	events, err := obs.ReadJSONL(bytes.NewReader(journal))
	if err != nil {
		t.Fatal(err)
	}
	s := journalSummary{bytes: len(journal), kinds: make(map[string]int)}
	for _, e := range events {
		s.kinds[e.Kind]++
		s.end = max(s.end, e.T)
	}
	return s
}

// summaryTable renders committed vs fresh as a markdown table (the form
// EXPERIMENTS.md records), one row per event kind present on either side.
func summaryTable(name string, committed, fresh journalSummary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "| %s | committed | fresh |\n|---|---|---|\n", name)
	fmt.Fprintf(&b, "| bytes | %d | %d |\n", committed.bytes, fresh.bytes)
	fmt.Fprintf(&b, "| final virtual time (s) | %.3f | %.3f |\n", committed.end, fresh.end)
	kinds := make([]string, 0, len(fresh.kinds))
	for k := range fresh.kinds {
		kinds = append(kinds, k)
	}
	for k := range committed.kinds {
		if _, ok := fresh.kinds[k]; !ok {
			kinds = append(kinds, k)
		}
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(&b, "| %s | %d | %d |\n", k, committed.kinds[k], fresh.kinds[k])
	}
	return b.String()
}

// completeGrapher declares the complete graph through Grapher.
type completeGrapher struct{ App }

func (completeGrapher) Graph(p int) *DepGraph { return CompleteGraph(p) }

// TestDegenerateGraphGolden pins the DepGraph contract: the complete graph is
// the degenerate one-stage case of the classical engine. Every seeded golden
// scenario re-run with an app that declares CompleteGraph(P) through Grapher
// must produce a journal byte-identical to the committed fixture — the same
// fixture an app without a graph reproduces.
func TestDegenerateGraphGolden(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			got := goldenJournal(t, tc, func(app App) App { return completeGrapher{app} }, nil)
			path := filepath.Join("testdata", "journal_"+tc.name+".jsonl")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture (run TestGoldenJournals with -update-golden): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("explicit CompleteGraph run diverged from fixture %s: got %d bytes, want %d",
					path, len(got), len(want))
			}
		})
	}
}
