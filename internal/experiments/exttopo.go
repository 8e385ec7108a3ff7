package experiments

import (
	"fmt"

	"specomp/internal/cluster"
	"specomp/internal/core"
	"specomp/internal/netmodel"
)

// ExtTopology studies a non-uniform network: the machines sit on two
// switches and every cross-switch message pays an extra latency (a remote
// lab, a slow uplink). The blocking algorithm serializes on the worst path
// every iteration; speculation needs to mask only as much as each peer's
// path actually costs, so its advantage grows with the cross-switch
// penalty.
func ExtTopology(cfg NBodyConfig) (Report, error) {
	rep := Report{
		ID:    "ext-topo",
		Title: fmt.Sprintf("two-switch topology, p=%d, N=%d (extension)", cfg.MaxProcs, cfg.N),
	}
	run := func(fw int, cross float64) (float64, error) {
		p := cfg.MaxProcs
		net := netmodel.PerPair{
			Inner: cfg.net(),
			Extra: netmodel.TwoSwitch(p, p/2, cross),
		}
		results, err := cfg.runNBodyCustom(p, cluster.Config{Net: net},
			core.Config{FW: fw, MaxIter: cfg.Iters}, nil, nil)
		if err != nil {
			return 0, err
		}
		return core.TotalTime(results), nil
	}

	blockS := Series{Name: "blocking"}
	specS := Series{Name: "speculative"}
	for _, cross := range []float64{0, 1, 2, 4} {
		tb, err := run(0, cross)
		if err != nil {
			return rep, err
		}
		ts, err := run(1, cross)
		if err != nil {
			return rep, err
		}
		blockS.X = append(blockS.X, cross)
		blockS.Y = append(blockS.Y, tb)
		specS.X = append(specS.X, cross)
		specS.Y = append(specS.Y, ts)
		rep.Lines = append(rep.Lines,
			fmt.Sprintf("cross-switch +%.0fs: blocking %8.2f s, speculative %8.2f s (gain %.0f%%)",
				cross, tb, ts, 100*(tb-ts)/tb))
	}
	rep.Series = []Series{blockS, specS}
	return rep, nil
}
