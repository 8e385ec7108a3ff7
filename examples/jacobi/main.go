// Jacobi example: solve a dense diagonally dominant linear system on a
// heterogeneous simulated cluster, comparing the blocking and speculative
// engines. Because Jacobi is a contraction, speculation's bounded errors
// wash out and both runs converge to the same solution.
package main

import (
	"fmt"
	"log"

	"specomp/internal/apps/jacobi"
	"specomp/internal/cluster"
	"specomp/internal/core"
	"specomp/internal/netmodel"
	"specomp/internal/partition"
)

func main() {
	const (
		n     = 120
		procs = 6
		iters = 40
	)
	prob := jacobi.NewDiagonallyDominant(n, 7)
	machines := cluster.LinearMachines(procs, 20_000, 5)
	blocks := partition.Blocks(n, cluster.Capacities(machines))

	run := func(fw int) (float64, []float64) {
		results, err := core.RunCluster(
			cluster.Config{Machines: machines, Net: netmodel.Fixed{D: 0.4}},
			core.Config{FW: fw, MaxIter: iters},
			func(p *cluster.Proc) core.App { return jacobi.NewApp(prob, blocks, p.ID(), 1e-4) },
		)
		if err != nil {
			log.Fatal(err)
		}
		x := make([]float64, n)
		for k, r := range results {
			copy(x[blocks[k][0]:blocks[k][1]], r.Final)
		}
		return core.TotalTime(results), x
	}

	fmt.Printf("Jacobi: %d unknowns, %d workstations (capacities 5:1), %d sweeps\n\n", n, procs, iters)
	tBlock, xBlock := run(0)
	tSpec, xSpec := run(1)
	fmt.Printf("%-12s %10s %14s %14s\n", "mode", "time(s)", "residual", "error vs x*")
	fmt.Printf("%-12s %10.2f %14.3e %14.3e\n", "blocking", tBlock, prob.Residual(xBlock), prob.ErrorNorm(xBlock))
	fmt.Printf("%-12s %10.2f %14.3e %14.3e\n", "speculative", tSpec, prob.Residual(xSpec), prob.ErrorNorm(xSpec))
	fmt.Printf("\nspeculation saved %.1f%% of virtual time\n", 100*(tBlock-tSpec)/tBlock)
}
