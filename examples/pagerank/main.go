// PageRank example: an honest demonstration of the BOUNDARY of speculative
// computation. The paper warns (§5): "unless variables can be predicted
// reasonably well, there is no gain with this method" — and PageRank under
// power iteration is exactly such a workload. Each vertex's rank trajectory
// mixes many spectral modes of comparable size, so history extrapolation
// errs on the order of the per-sweep change itself (measured ≈1.5× for
// linear extrapolation).
//
// The example runs three modes on the same problem and reports the outcome:
//
//   - blocking (FW=0): the classical algorithm;
//   - speculation with a strict progress-relative check (θ=0.3): almost
//     every check fails, every sweep pays a repair — slower, values exact;
//   - bounded staleness (zero-order speculation, θ=1.1): checks pass but
//     stale-by-one data slows the contraction, needing ~3x the sweeps.
//
// Speculation loses in both configurations — and the error-checking
// machinery is precisely what tells you so while keeping the answer
// correct. Compare examples/nbody, where speculation wins by 25%+.
package main

import (
	"fmt"
	"log"

	"specomp/internal/apps/pagerank"
	"specomp/internal/cluster"
	"specomp/internal/core"
	"specomp/internal/netmodel"
	"specomp/internal/partition"
)

func main() {
	const (
		vertices = 300
		procs    = 6
		maxIter  = 400
	)
	g := pagerank.NewRandomGraph(vertices, 5, 42)
	g.Dangle(15)
	prob := pagerank.NewProblem(g, 0.85)

	machines := cluster.LinearMachines(procs, 10_000, 4)
	blocks := partition.Blocks(vertices, cluster.Capacities(machines))

	run := func(fw int, theta, alpha float64) (float64, int, []float64, core.AggregateStats) {
		results, err := core.RunCluster(
			cluster.Config{Machines: machines, Net: netmodel.Fixed{D: 0.1}},
			core.Config{FW: fw, MaxIter: maxIter},
			func(p *cluster.Proc) core.App {
				app := pagerank.NewApp(prob, blocks, p.ID(), theta)
				app.SpecAlpha = alpha
				app.Tol = 1e-7
				return app
			})
		if err != nil {
			log.Fatal(err)
		}
		rank := make([]float64, vertices)
		for k, r := range results {
			copy(rank[blocks[k][0]:blocks[k][1]], r.Final)
		}
		return core.TotalTime(results), results[0].Stats.Iters, rank, core.Aggregate(results)
	}

	exact := prob.SerialSolve(300)
	fmt.Printf("PageRank: %d vertices (%d dangling), %d workstations — a workload\n", vertices, 15, procs)
	fmt.Printf("where speculation does NOT pay (unpredictable per-vertex trends)\n\n")
	fmt.Printf("%-28s %9s %7s %12s %10s\n", "mode", "time(s)", "sweeps", "L1 vs exact", "bad-specs")

	tB, itB, rB, _ := run(0, 0.3, 1)
	fmt.Printf("%-28s %9.1f %7d %12.2e %10s\n", "blocking (FW=0)", tB, itB, pagerank.L1Diff(rB, exact), "-")

	tS, itS, rS, aggS := run(1, 0.3, 1)
	fmt.Printf("%-28s %9.1f %7d %12.2e %9d\n", "speculative, strict θ=0.3", tS, itS, pagerank.L1Diff(rS, exact), aggS.SpecsBad)

	tL, itL, rL, aggL := run(1, 1.1, 0)
	fmt.Printf("%-28s %9.1f %7d %12.2e %9d\n", "bounded staleness θ=1.1", tL, itL, pagerank.L1Diff(rL, exact), aggL.SpecsBad)

	fmt.Printf("\nrank mass: %.9f (should be 1)\n", pagerank.Sum(rL))
	fmt.Println("\ntakeaway: the checks caught the bad predictions (strict mode repairs")
	fmt.Println("every sweep; lazy mode converges slowly) — the answer stays correct,")
	fmt.Println("but masking buys nothing when values cannot be predicted (§5).")
}
