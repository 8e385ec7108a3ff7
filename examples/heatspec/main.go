// Heat-diffusion example: a 2-D plate with a hot top edge and cold bottom
// edge, decomposed into strips over four simulated workstations. Shows that
// ghost-strip speculation masks network latency while the field still
// converges to the analytic steady state.
package main

import (
	"fmt"
	"log"

	"specomp/internal/apps/heat"
	"specomp/internal/cluster"
	"specomp/internal/core"
	"specomp/internal/netmodel"
	"specomp/internal/partition"
)

func run(g heat.Grid, fw, iters int) (float64, [][]float64) {
	const procs = 4
	machines := cluster.UniformMachines(procs, 50_000)
	blocks := partition.Blocks(g.Rows, cluster.Capacities(machines))
	results, err := core.RunCluster(
		cluster.Config{Machines: machines, Net: netmodel.Fixed{D: 0.02}},
		core.Config{FW: fw, MaxIter: iters},
		func(p *cluster.Proc) core.App { return heat.NewApp(g, blocks, p.ID(), 1e-3) },
	)
	if err != nil {
		log.Fatal(err)
	}
	field := make([][]float64, g.Rows)
	for k, res := range results {
		blo, bhi := blocks[k][0], blocks[k][1]
		for r := blo; r < bhi; r++ {
			field[r] = res.Final[(r-blo)*g.Cols : (r-blo+1)*g.Cols]
		}
	}
	return core.TotalTime(results), field
}

func main() {
	g := heat.DefaultGrid(32, 16)
	const iters = 3000

	tBlock, _ := run(g, 0, iters)
	tSpec, field := run(g, 1, iters)

	fmt.Printf("2-D heat diffusion, %dx%d grid, %d iterations on 4 workstations\n", g.Rows, g.Cols, iters)
	fmt.Printf("blocking:    %8.1f s virtual time\n", tBlock)
	fmt.Printf("speculative: %8.1f s virtual time (%.1f%% faster)\n\n",
		tSpec, 100*(tBlock-tSpec)/tBlock)

	dev := heat.MaxDiff(field, g.SteadyState())
	fmt.Printf("max deviation from analytic steady state: %.3f degrees\n\n", dev)

	fmt.Println("temperature profile down the plate (column 8):")
	for r := 0; r < g.Rows; r += 4 {
		bar := int(field[r][8] / 2)
		fmt.Printf("row %2d %6.1f° %s\n", r, field[r][8], bars(bar))
	}
}

func bars(n int) string {
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}
