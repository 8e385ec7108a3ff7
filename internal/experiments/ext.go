package experiments

import (
	"fmt"

	"specomp/internal/core"
	"specomp/internal/nbody"
	"specomp/internal/perfmodel"
	"specomp/internal/predict"
)

// noSpeculator hides an App's Speculator implementation so the engine uses
// the configured generic predictor instead — used to compare speculation
// functions on an identical workload.
type noSpeculator struct{ core.App }

// ExtForwardWindows sweeps the forward window on the N-body workload and
// overlays the extended performance model's prediction (perfmodel.SpecTimeFW,
// the paper's future-work analysis). Reported as speedup over FW=0.
func ExtForwardWindows(cfg NBodyConfig) (Report, error) {
	rep := Report{
		ID:    "ext-fw",
		Title: fmt.Sprintf("forward-window sweep, p=%d, N=%d (extension)", cfg.MaxProcs, cfg.N),
	}
	measured := Series{Name: "measured"}
	model := Series{Name: "model"}

	caps := make([]float64, cfg.MaxProcs)
	for i, m := range cfg.machines() {
		caps[i] = m.Ops
	}
	pm := perfmodel.Params{
		N:                 cfg.N,
		FComp:             nbody.PairOps * float64(cfg.N),
		FSpec:             nbody.SpecOpsPerParticle,
		FCheck:            nbody.CheckOpsPerRemote,
		FCheckPerLocalVar: nbody.CheckOpsPerPair,
		Caps:              caps,
		TComm:             cfg.modelTComm(),
		K:                 0.02,
	}

	base := 0.0
	for fw := 0; fw <= 4; fw++ {
		results, err := cfg.Run(cfg.MaxProcs, fw, cfg.Theta, nil)
		if err != nil {
			return rep, err
		}
		total := core.TotalTime(results)
		if fw == 0 {
			base = total
		}
		measured.X = append(measured.X, float64(fw))
		measured.Y = append(measured.Y, base/total)
		var mt float64
		if fw == 0 {
			mt = pm.NoSpecTime(cfg.MaxProcs)
		} else {
			mt = pm.SpecTimeFW(cfg.MaxProcs, fw)
		}
		model.X = append(model.X, float64(fw))
		model.Y = append(model.Y, pm.NoSpecTime(cfg.MaxProcs)/mt)
	}
	rep.Series = []Series{measured, model}
	rep.Lines = append(rep.Lines,
		"speedup relative to the blocking run (FW=0) as the forward window grows;",
		"gains saturate once the communication bound t_comm/FW drops below the compute bound.")
	return rep, nil
}

// ExtPredictors compares speculation functions (backward-window study) on
// the N-body workload with the app's built-in velocity extrapolation
// disabled, reporting run time and failed-check fraction per predictor.
func ExtPredictors(cfg NBodyConfig) (Report, error) {
	rep := Report{
		ID:    "ext-bw",
		Title: fmt.Sprintf("speculation-function comparison, p=%d, N=%d (extension)", cfg.MaxProcs, cfg.N),
	}
	preds := []predict.Predictor{
		predict.ZeroOrder{},
		predict.Linear{},
		predict.Damped{Alpha: 0.7},
		predict.WeightedSum{Weights: []float64{1.5, -0.25, -0.25}},
		predict.Polynomial{Order: 2},
		predict.Holt{Alpha: 0.6, Beta: 0.4, BW: 4},
	}
	times := Series{Name: "total-simsec"}
	badFrac := Series{Name: "bad-frac"}
	rep.Lines = append(rep.Lines,
		fmt.Sprintf("%-24s %6s %12s %12s", "predictor", "BW", "time(s)", "bad-pairs%"))
	for i, p := range preds {
		results, err := cfg.runNBodyCustom(cfg.MaxProcs,
			core.Config{FW: 1, MaxIter: cfg.Iters, Predictor: p, BW: p.Window()},
			func(app core.App) core.App { return noSpeculator{app} }, nil)
		if err != nil {
			return rep, err
		}
		agg := core.Aggregate(results)
		total := core.TotalTime(results)
		times.X = append(times.X, float64(i))
		times.Y = append(times.Y, total)
		badFrac.X = append(badFrac.X, float64(i))
		badFrac.Y = append(badFrac.Y, agg.UnitBadFraction())
		rep.Lines = append(rep.Lines,
			fmt.Sprintf("%-24s %6d %12.2f %12.2f", p.Name(), p.Window(), total, 100*agg.UnitBadFraction()))
	}
	rep.Series = []Series{times, badFrac}
	// Also report the app's native eq.-10 velocity speculation for context.
	native, err := cfg.Run(cfg.MaxProcs, 1, cfg.Theta, nil)
	if err != nil {
		return rep, err
	}
	rep.Lines = append(rep.Lines,
		fmt.Sprintf("%-24s %6s %12.2f %12.2f", "eq.10 velocity (native)", "1",
			core.TotalTime(native), 100*core.Aggregate(native).UnitBadFraction()))
	return rep, nil
}
