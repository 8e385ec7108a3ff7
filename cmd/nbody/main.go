// Command nbody runs one parallel N-body simulation on the simulated
// workstation network and reports speedup, phase times and speculation
// statistics.
//
// Usage:
//
//	nbody [-n 1000] [-procs 16] [-iters 10] [-fw 1] [-theta 0.01]
//	      [-ic sphere|disk|clusters] [-seed 1994]
package main

import (
	"flag"
	"fmt"
	"log"

	"specomp/internal/core"
	"specomp/internal/experiments"
	"specomp/internal/nbody"
)

func main() {
	var (
		n     = flag.Int("n", 1000, "number of particles")
		procs = flag.Int("procs", 16, "number of simulated workstations")
		iters = flag.Int("iters", 10, "timesteps")
		fw    = flag.Int("fw", 1, "forward window (0 = no speculation)")
		theta = flag.Float64("theta", 0.01, "speculation error threshold θ")
		ic    = flag.String("ic", "sphere", "initial condition: sphere, disk, clusters")
		seed  = flag.Int64("seed", 1994, "random seed")
	)
	flag.Parse()

	cfg := experiments.DefaultNBody()
	cfg.N = *n
	cfg.MaxProcs = *procs
	cfg.Iters = *iters
	cfg.Theta = *theta
	cfg.Seed = *seed
	switch *ic {
	case "sphere":
		cfg.IC = nbody.UniformSphere
	case "disk":
		cfg.IC = nbody.RotatingDisk
	case "clusters":
		cfg.IC = nbody.TwoClusters
	default:
		log.Fatalf("unknown initial condition %q", *ic)
	}

	instr := &nbody.Instrument{}
	results, err := cfg.Run(*procs, *fw, *theta, instr)
	if err != nil {
		log.Fatal(err)
	}
	serial, err := cfg.SerialTime()
	if err != nil {
		log.Fatal(err)
	}
	total := core.TotalTime(results)
	agg := core.Aggregate(results)
	it := float64(*iters)

	fmt.Printf("N-body: %d particles, %d processors, %d iterations, FW=%d, θ=%g, ic=%s\n",
		*n, *procs, *iters, *fw, *theta, *ic)
	fmt.Printf("virtual time:   %.2f s total (%.3f s/iter)\n", total, total/it)
	fmt.Printf("speedup:        %.2f (max attainable %.2f)\n",
		serial/total, cfg.SumCaps(*procs)/cfg.SumCaps(1))
	fmt.Printf("phases/iter:    compute %.3f  comm %.3f  spec %.3f  check %.3f  correct %.3f\n",
		agg.MaxCompute/it, agg.MaxComm/it, agg.MaxSpec/it, agg.MaxCheck/it, agg.MaxCorrect/it)
	fmt.Printf("speculations:   %d made, %d failed checks (%.2f%%), %d repairs, %d cascades\n",
		agg.SpecsMade, agg.SpecsBad, 100*agg.BadFraction(), agg.Repairs, agg.CascadeRedos)
	if instr.PairsTotal > 0 {
		fmt.Printf("pair checks:    %.3f%% out of tolerance; max accepted force error %.3f%%\n",
			100*float64(instr.PairsBad)/float64(instr.PairsTotal), 100*instr.MaxForceErr)
	}
}
