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

	// Jacobi: dense 120-unknown system on 6 machines, latency comparable
	// to a sweep.
	{
		prob := jacobi.NewDiagonallyDominant(120, 7)
		machines := cluster.LinearMachines(6, 20_000, 5)
		blocks := partition.Blocks(prob.N, cluster.Capacities(machines))
		run := func(fw int) (float64, error) {
			results, err := core.RunCluster(
				cluster.Config{Machines: machines, Net: netmodel.Fixed{D: 0.4}},
				core.Config{FW: fw, MaxIter: 40},
				func(p *cluster.Proc) core.App { return jacobi.NewApp(prob, blocks, p.ID(), 1e-4) })
			if err != nil {
				return 0, err
			}
			return core.TotalTime(results), nil
		}
		tb, err := run(0)
		if err != nil {
			return rep, err
		}
		ts, err := run(1)
		if err != nil {
			return rep, err
		}
		record(1, "jacobi", tb, ts)
	}

	// Heat: 32×16 strip-decomposed stencil with neighbour exchange.
	{
		g := heat.DefaultGrid(32, 16)
		machines := cluster.UniformMachines(4, 50_000)
		blocks := partition.Blocks(g.Rows, cluster.Capacities(machines))
		run := func(fw int) (float64, error) {
			results, err := core.RunCluster(
				cluster.Config{Machines: machines, Net: netmodel.Fixed{D: 0.02}},
				core.Config{FW: fw, MaxIter: 1000},
				func(p *cluster.Proc) core.App { return heat.NewApp(g, blocks, p.ID(), 1e-3) })
			if err != nil {
				return 0, err
			}
			return core.TotalTime(results), nil
		}
		tb, err := run(0)
		if err != nil {
			return rep, err
		}
		ts, err := run(1)
		if err != nil {
			return rep, err
		}
		record(2, "heat", tb, ts)
	}

	// SOR: 32×16 red-black half-sweeps, colour-aware speculation.
	{
		g := sor.DefaultGrid(32, 16)
		machines := cluster.UniformMachines(4, 10_000)
		blocks := partition.Blocks(g.Rows, cluster.Capacities(machines))
		run := func(fw int) (float64, error) {
			results, err := core.RunCluster(
				cluster.Config{Machines: machines, Net: netmodel.Fixed{D: 0.05}},
				core.Config{FW: fw, BW: 3, MaxIter: 200},
				func(p *cluster.Proc) core.App { return sor.NewApp(g, blocks, p.ID(), 1e-3) })
			if err != nil {
				return 0, err
			}
			return core.TotalTime(results), nil
		}
		tb, err := run(0)
		if err != nil {
			return rep, err
		}
		ts, err := run(1)
		if err != nil {
			return rep, err
		}
		record(3, "sor", tb, ts)
	}

	rep.Series = []Series{gains}
	rep.Lines = append(rep.Lines,
		"(pagerank is the documented counterexample — see examples/pagerank)")
	return rep, nil
}
