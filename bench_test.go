// Package specomp_test benchmarks regenerate every table and figure of the
// paper (at the scaled-down Quick configuration; use cmd/specbench for the
// full N=1000, p=16 runs) and measure the ablations called out in DESIGN.md.
//
// Each benchmark reports, in addition to wall-clock ns/op, the *virtual*
// simulated seconds of the run ("simsec") — the quantity the paper's tables
// are made of — and, where meaningful, the speculative-vs-blocking gain.
package specomp_test

import (
	"testing"

	"specomp/internal/cluster"
	"specomp/internal/core"
	"specomp/internal/experiments"
	"specomp/internal/nbody"
	"specomp/internal/netmodel"
	"specomp/internal/partition"
	"specomp/internal/perfmodel"
	"specomp/internal/predict"
	"specomp/internal/realtime"
)

// BenchmarkFigure2 regenerates the blocking vs speculation-good vs
// speculation-bad timelines (paper Figure 2).
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		tot := rep.SeriesByName("totals")
		b.ReportMetric(tot.Y[0], "nospec-simsec")
		b.ReportMetric(tot.Y[1], "specgood-simsec")
		b.ReportMetric(tot.Y[2], "specbad-simsec")
	}
}

// BenchmarkFigure4 regenerates the transient-delay forward-window study
// (paper Figure 4).
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Figure4()
		if err != nil {
			b.Fatal(err)
		}
		tot := rep.SeriesByName("total-time")
		b.ReportMetric(tot.Y[0], "fw0-simsec")
		b.ReportMetric(tot.Y[2], "fw2-simsec")
	}
}

// BenchmarkFigure5 evaluates the §4 model speedup curves (paper Figure 5).
func BenchmarkFigure5(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		rep := experiments.Figure5()
		s, n := rep.SeriesByName("spec"), rep.SeriesByName("no-spec")
		gain = s.Y[len(s.Y)-1] / n.Y[len(n.Y)-1]
	}
	b.ReportMetric(gain, "spec/nospec@16")
}

// BenchmarkFigure6 evaluates the recomputation-sensitivity curve (paper
// Figure 6).
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := experiments.Figure6()
		if len(rep.Series) != 2 {
			b.Fatal("missing series")
		}
	}
}

// BenchmarkFigure8 regenerates the measured N-body speedup curves (paper
// Figure 8) at the Quick scale.
func BenchmarkFigure8(b *testing.B) {
	cfg := experiments.QuickNBody()
	var gain float64
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Figure8(cfg)
		if err != nil {
			b.Fatal(err)
		}
		fw1 := rep.SeriesByName("FW=1")
		fw0 := rep.SeriesByName("FW=0")
		gain = fw1.Y[len(fw1.Y)-1] / fw0.Y[len(fw0.Y)-1]
	}
	b.ReportMetric(gain, "spec/nospec@maxp")
}

// BenchmarkTable2 regenerates the per-phase iteration breakdown (paper
// Table 2) at the Quick scale.
func BenchmarkTable2(b *testing.B) {
	cfg := experiments.QuickNBody()
	var rows []experiments.Table2Row
	for i := 0; i < b.N; i++ {
		var err error
		_, rows, err = experiments.Table2(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].Total, "fw0-simsec/iter")
	b.ReportMetric(rows[1].Total, "fw1-simsec/iter")
	b.ReportMetric(rows[2].Total, "fw2-simsec/iter")
}

// BenchmarkTable3 regenerates the θ sensitivity study (paper Table 3) at the
// Quick scale.
func BenchmarkTable3(b *testing.B) {
	cfg := experiments.QuickNBody()
	var rows []experiments.Table3Row
	for i := 0; i < b.N; i++ {
		var err error
		_, rows, err = experiments.Table3(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[2].IncorrectPct, "incorrect%@0.01")
	b.ReportMetric(rows[2].MaxForceErr, "forceerr%@0.01")
}

// BenchmarkFigure9 regenerates the model-vs-measured overlay (paper
// Figure 9) at the Quick scale.
func BenchmarkFigure9(b *testing.B) {
	cfg := experiments.QuickNBody()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure9(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// nbodyOnce runs a single Quick N-body simulation and returns its virtual
// time, for the ablation benchmarks.
func nbodyOnce(b *testing.B, mutate func(*core.Config), appWrap func(core.App) core.App) float64 {
	b.Helper()
	cfg := experiments.QuickNBody()
	ms := cluster.LinearMachines(cfg.MaxProcs, cfg.FastestOps, cfg.CapRatio)
	caps := make([]float64, len(ms))
	for i, m := range ms {
		caps[i] = m.Ops
	}
	counts := partition.Proportional(cfg.N, caps)
	blocks := nbody.SplitParticles(nbody.UniformSphere(cfg.N, cfg.Seed), counts)
	sim := nbody.DefaultSim()
	sim.Dt = cfg.Dt
	ecfg := core.Config{FW: 1, MaxIter: cfg.Iters}
	if mutate != nil {
		mutate(&ecfg)
	}
	results, err := core.RunCluster(
		cluster.Config{
			Machines: ms,
			Net: &netmodel.SharedBus{
				Overhead:     cfg.BusOverhead,
				BytesPerSec:  cfg.BusBandwidth,
				HostOverhead: cfg.HostOverhead,
			},
			Seed: cfg.Seed,
		},
		ecfg,
		func(p *cluster.Proc) core.App {
			var app core.App = nbody.NewApp(sim, blocks[p.ID()], cfg.N, p.ID(), cfg.Theta, nil)
			if appWrap != nil {
				app = appWrap(app)
			}
			return app
		})
	if err != nil {
		b.Fatal(err)
	}
	return core.TotalTime(results)
}

// BenchmarkAblationHoldSends compares speculative sends (default) against
// the HoldSends mode that only transmits validated values (DESIGN.md §5).
func BenchmarkAblationHoldSends(b *testing.B) {
	var free, held float64
	for i := 0; i < b.N; i++ {
		free = nbodyOnce(b, func(c *core.Config) { c.FW = 2 }, nil)
		held = nbodyOnce(b, func(c *core.Config) { c.FW = 2; c.HoldSends = true }, nil)
	}
	b.ReportMetric(free, "free-simsec")
	b.ReportMetric(held, "held-simsec")
}

// fullRecomputeApp overrides the N-body incremental repair with the model's
// full k·N_i·f_comp recomputation charge.
type fullRecomputeApp struct{ core.App }

func (a fullRecomputeApp) RepairOps(r core.CheckResult) float64 {
	if r.Total == 0 {
		return 0
	}
	inner := a.App.(*nbody.App)
	return float64(r.Bad) / float64(r.Total) * inner.ComputeOps()
}

// BenchmarkAblationCorrectVsRecompute compares the N-body per-pair
// incremental correction function (core.Corrector) against full
// recomputation charged at the model's fraction-of-a-sweep rate.
func BenchmarkAblationCorrectVsRecompute(b *testing.B) {
	var incr, full float64
	for i := 0; i < b.N; i++ {
		incr = nbodyOnce(b, nil, func(app core.App) core.App {
			return nbody.WithCorrection{App: app.(*nbody.App)}
		})
		full = nbodyOnce(b, nil, func(app core.App) core.App { return fullRecomputeApp{app} })
	}
	b.ReportMetric(incr, "correct-simsec")
	b.ReportMetric(full, "recompute-simsec")
}

// BenchmarkAblationPredictors compares generic speculation functions on the
// same workload by suppressing the N-body app's built-in velocity
// speculation (a Speculator-hiding wrapper), isolating predictor quality.
func BenchmarkAblationPredictors(b *testing.B) {
	for _, p := range []predict.Predictor{
		predict.ZeroOrder{},
		predict.Linear{},
		predict.Polynomial{Order: 2},
	} {
		p := p
		b.Run(p.Name(), func(b *testing.B) {
			var vt float64
			for i := 0; i < b.N; i++ {
				vt = nbodyOnce(b,
					func(c *core.Config) { c.Predictor = p },
					func(app core.App) core.App { return noSpeculator{app} })
			}
			b.ReportMetric(vt, "simsec")
		})
	}
}

// noSpeculator hides the app's Speculator implementation so the engine
// falls back to the configured generic predictor.
type noSpeculator struct{ core.App }

// BenchmarkRealtime measures the wall-clock runtime's overhead per
// iteration with zero injected latency (pure engine cost on goroutines).
func BenchmarkRealtime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := realtime.Run(realtime.Config{Procs: 4, MaxIter: 30, FW: 1},
			func(pid, procs int) core.App { return benchToy{pid: pid} })
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerfModel measures the cost of a full model sweep.
func BenchmarkPerfModel(b *testing.B) {
	m := perfmodel.NBodyRatioParams()
	for i := 0; i < b.N; i++ {
		for p := 1; p <= 16; p++ {
			_ = m.SpecTime(p)
			_ = m.NoSpecTime(p)
		}
	}
}

// BenchmarkEngineOverhead measures raw engine throughput: iterations per
// second of a minimal app on a fast network (wall-clock cost of the DES and
// engine bookkeeping, independent of any paper table).
func BenchmarkEngineOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := core.RunCluster(
			cluster.Config{
				Machines: cluster.UniformMachines(4, 1e6),
				Net:      netmodel.Fixed{D: 1e-4},
			},
			core.Config{FW: 1, MaxIter: 50},
			func(p *cluster.Proc) core.App { return benchToy{pid: p.ID()} })
		if err != nil {
			b.Fatal(err)
		}
	}
}

type benchToy struct{ pid int }

func (a benchToy) InitLocal() []float64 { return []float64{1} }

func (a benchToy) Compute(view [][]float64, t int) []float64 {
	s := 0.0
	for _, v := range view {
		s += v[0]
	}
	return []float64{s / float64(len(view))}
}

func (a benchToy) ComputeOps() float64 { return 100 }

func (a benchToy) Check(peer int, pred, act, local []float64, t int) core.CheckResult {
	return core.RelErrCheck(0.01, 1, pred, act)
}

func (a benchToy) RepairOps(r core.CheckResult) float64 { return 100 }
