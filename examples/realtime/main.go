// Realtime example: the same speculative-computation machinery running on
// REAL goroutines and channels with injected wall-clock message latency —
// no simulator involved. Four workers iterate a coupled map; speculation
// overlaps the (real) 10 ms link latency with (real) compute time.
package main

import (
	"fmt"
	"log"
	"time"

	"specomp/internal/core"
	"specomp/internal/realtime"
)

// app is a smooth coupled map (see examples/quickstart) with ~4 ms of real
// computation per iteration.
type app struct {
	pid, p int
}

func (a *app) InitLocal() []float64 {
	return []float64{0.3 + 0.4*float64(a.pid)/float64(a.p)}
}

func (a *app) Compute(view [][]float64, t int) []float64 {
	f := func(x float64) float64 { return 2.7 * x * (1 - x) }
	time.Sleep(4 * time.Millisecond) // stand-in for real numerical work
	sum := 0.0
	for _, part := range view {
		sum += f(part[0])
	}
	mean := sum / float64(len(view))
	x := view[a.pid][0]
	return []float64{0.8*f(x) + 0.2*mean}
}

func (a *app) ComputeOps() float64 { return 1 }

func (a *app) Check(peer int, pred, act, local []float64, t int) core.CheckResult {
	return core.RelErrCheck(0.02, 1, pred, act)
}

func (a *app) RepairOps(r core.CheckResult) float64 { return 1 }

func main() {
	const (
		procs = 4
		iters = 50
		delay = 10 * time.Millisecond
	)
	run := func(fw int) (time.Duration, []realtime.Result) {
		results, err := realtime.Run(
			realtime.Config{Procs: procs, MaxIter: iters, FW: fw, Delay: delay},
			func(pid, p int) core.App { return &app{pid: pid, p: p} })
		if err != nil {
			log.Fatal(err)
		}
		worst := time.Duration(0)
		for _, r := range results {
			if r.Elapsed > worst {
				worst = r.Elapsed
			}
		}
		return worst, results
	}

	fmt.Printf("%d goroutines, %d iterations, %v injected link latency\n\n", procs, iters, delay)
	tBlock, _ := run(0)
	tSpec, results := run(1)
	fmt.Printf("blocking (FW=0):    %8.1f ms wall clock\n", float64(tBlock.Microseconds())/1000)
	fmt.Printf("speculative (FW=1): %8.1f ms wall clock (%.0f%% faster)\n\n",
		float64(tSpec.Microseconds())/1000, 100*float64(tBlock-tSpec)/float64(tBlock))
	made, bad := 0, 0
	for _, r := range results {
		made += r.Stats.SpecsMade
		bad += r.Stats.SpecsBad
	}
	fmt.Printf("speculations: %d made, %d rejected\n", made, bad)
	fmt.Printf("final values: ")
	for _, r := range results {
		fmt.Printf("%.6f ", r.Final[0])
	}
	fmt.Println()
}
