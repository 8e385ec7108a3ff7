package main

import (
	"fmt"
	"math"

	"specomp/internal/apps/heat"
	"specomp/internal/apps/jacobi"
	"specomp/internal/distnet"
	"specomp/internal/nbody"
	"specomp/internal/realtime"
)

// Tolerances of the correctness gate. Heat uses the bound the distnet tests
// use; jacobi at FW=0 performs the serial sweeps in the serial order, so it
// must agree to rounding; N-body is bounded on relative position error.
const (
	heatTol   = 0.5
	jacobiTol = 1e-9
	nbodyTol  = 0.01
)

// reference holds a workload's serial solution for one seed. Every unit of a
// run is compared against it, outside the timing window; it is computed once,
// before the warm-up unit.
type reference struct {
	heatField [][]float64
	jacobiX   []float64
	nbodyEnd  []nbody.Particle
}

// newReference computes the serial reference of w at seed.
func newReference(w workload, seed int64) (*reference, error) {
	ref := &reference{}
	if w.on == onRealtime {
		sim := nbody.DefaultSim()
		sim.Dt = w.nbodyDt
		ref.nbodyEnd = sim.Evolve(nbody.UniformSphere(w.nbodyN, seed), w.spec.MaxIter)
		return ref, nil
	}
	spec := w.spec
	spec.Seed = seed
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	switch spec.App {
	case "heat":
		ref.heatField = heat.DefaultGrid(spec.Rows, spec.Cols).SerialRun(spec.MaxIter)
	case "jacobi":
		ref.jacobiX = jacobi.NewDiagonallyDominant(spec.N, spec.Seed).SerialSolve(spec.MaxIter)
	default:
		return nil, fmt.Errorf("no serial reference for app %q", spec.App)
	}
	return ref, nil
}

// checkFleet verifies one distnet run: a report from every rank, every rank
// at MaxIter, and the assembled solution within tolerance of the reference.
// It returns the deviation found.
func (ref *reference) checkFleet(spec distnet.RunSpec, reports []distnet.NodeReport) (float64, error) {
	if len(reports) != spec.Procs {
		return 0, fmt.Errorf("%d reports, want %d", len(reports), spec.Procs)
	}
	for _, rep := range reports {
		if rep.Iters != spec.MaxIter {
			return 0, fmt.Errorf("rank %d ran %d iterations, want %d", rep.Rank, rep.Iters, spec.MaxIter)
		}
	}
	switch spec.App {
	case "heat":
		field, err := distnet.AssembleHeat(spec, reports)
		if err != nil {
			return 0, err
		}
		return within(heat.MaxDiff(field, ref.heatField), heatTol, "heat field")
	case "jacobi":
		dev := 0.0
		blocks := spec.Blocks()
		for _, rep := range reports {
			lo, hi := blocks[rep.Rank][0], blocks[rep.Rank][1]
			if len(rep.Final) != hi-lo {
				return 0, fmt.Errorf("rank %d final has %d values, want %d", rep.Rank, len(rep.Final), hi-lo)
			}
			for i, v := range rep.Final {
				dev = math.Max(dev, math.Abs(v-ref.jacobiX[lo+i]))
			}
		}
		return within(dev, jacobiTol, "jacobi iterate")
	}
	return 0, fmt.Errorf("no verifier for app %q", spec.App)
}

// checkNBody verifies one N-body run against the serial evolution.
func (ref *reference) checkNBody(w workload, results []realtime.Result) (float64, error) {
	var got []nbody.Particle
	for _, r := range results {
		if r.Stats.Iters != w.spec.MaxIter {
			return 0, fmt.Errorf("rank %d ran %d iterations, want %d", r.Proc, r.Stats.Iters, w.spec.MaxIter)
		}
		got = append(got, nbody.Decode(r.Final)...)
	}
	if len(got) != len(ref.nbodyEnd) {
		return 0, fmt.Errorf("%d particles, want %d", len(got), len(ref.nbodyEnd))
	}
	return within(nbody.MaxPairwiseRelErr(got, ref.nbodyEnd), nbodyTol, "nbody positions")
}

// within passes dev through and fails when it exceeds tol (NaN fails).
func within(dev, tol float64, what string) (float64, error) {
	if !(dev <= tol) {
		return dev, fmt.Errorf("%s deviates %g from the serial reference (tolerance %g)", what, dev, tol)
	}
	return dev, nil
}
