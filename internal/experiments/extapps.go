package experiments

import (
	"fmt"

	"specomp/internal/apps/heat"
	"specomp/internal/apps/jacobi"
	"specomp/internal/apps/sor"
	"specomp/internal/cluster"
	"specomp/internal/core"
	"specomp/internal/netmodel"
	"specomp/internal/partition"
)

// ExtApps tests the paper's closing claim — "the technique is likely to
// yield similar performance benefits for other applications" — by running
// the blocking and speculative engines over every application in the
// repository on a comparable cluster and reporting the gain. Each app uses
// its natural problem size and speculation settings; the N-body column is
// the Quick configuration for comparability.
func ExtApps(cfg NBodyConfig) (Report, error) {
	rep := Report{
		ID:    "ext-apps",
		Title: "speculation gain across applications (extension)",
	}
	rep.Lines = append(rep.Lines,
		fmt.Sprintf("%-10s %12s %12s %8s", "app", "blocking(s)", "spec(s)", "gain%"))
	gains := Series{Name: "gain%"}
	record := func(i int, name string, tb, ts float64) {
		gains.X = append(gains.X, float64(i))
		gains.Y = append(gains.Y, 100*(tb-ts)/tb)
		rep.Lines = append(rep.Lines,
			fmt.Sprintf("%-10s %12.2f %12.2f %7.1f%%", name, tb, ts, 100*(tb-ts)/tb))
	}

	// N-body (quick scale).
	nb0, err := cfg.Run(cfg.MaxProcs, 0, cfg.Theta, nil)
	if err != nil {
		return rep, err
	}
	nb1, err := cfg.Run(cfg.MaxProcs, 1, cfg.Theta, nil)
	if err != nil {
		return rep, err
	}
	record(0, "nbody", core.TotalTime(nb0), core.TotalTime(nb1))

	// The grid applications, each at its natural size and speculation
	// settings, blocking (FW=0) against FW=1.
	prob := jacobi.NewDiagonallyDominant(120, 7)
	hg, sg := heat.DefaultGrid(32, 16), sor.DefaultGrid(32, 16)
	apps := []struct {
		name    string
		cluster cluster.Config
		engine  core.Config // FW is set per run
		size    int         // variables split over the machines
		app     func(blocks [][2]int, id int) core.App
	}{
		// Jacobi: dense 120-unknown system on 6 machines, latency
		// comparable to a sweep.
		{"jacobi", cluster.Config{Machines: cluster.LinearMachines(6, 20_000, 5), Net: netmodel.Fixed{D: 0.4}},
			core.Config{MaxIter: 40}, prob.N,
			func(b [][2]int, id int) core.App { return jacobi.NewApp(prob, b, id, 1e-4) }},
		// Heat: 32×16 strip-decomposed stencil with neighbour exchange.
		{"heat", cluster.Config{Machines: cluster.UniformMachines(4, 50_000), Net: netmodel.Fixed{D: 0.02}},
			core.Config{MaxIter: 1000}, hg.Rows,
			func(b [][2]int, id int) core.App { return heat.NewApp(hg, b, id, 1e-3) }},
		// SOR: 32×16 red-black half-sweeps, colour-aware speculation.
		{"sor", cluster.Config{Machines: cluster.UniformMachines(4, 10_000), Net: netmodel.Fixed{D: 0.05}},
			core.Config{BW: 3, MaxIter: 200}, sg.Rows,
			func(b [][2]int, id int) core.App { return sor.NewApp(sg, b, id, 1e-3) }},
	}
	for i, a := range apps {
		blocks := partition.Blocks(a.size, cluster.Capacities(a.cluster.Machines))
		var t [2]float64 // total time at FW=0 and FW=1
		for fw := range t {
			ecfg := a.engine
			ecfg.FW = fw
			results, err := core.RunCluster(a.cluster, ecfg,
				func(p *cluster.Proc) core.App { return a.app(blocks, p.ID()) })
			if err != nil {
				return rep, err
			}
			t[fw] = core.TotalTime(results)
		}
		record(i+1, a.name, t[0], t[1])
	}

	rep.Series = []Series{gains}
	rep.Lines = append(rep.Lines,
		"(pagerank is the documented counterexample — see examples/pagerank)")
	return rep, nil
}
