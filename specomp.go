// Package specomp is a Go implementation of speculative computation for
// synchronous iterative algorithms, after Govindan & Franklin,
// "Speculative Computation: Overcoming Communication Delays in Parallel
// Algorithms" (WUCS-94-3, 1994).
//
// Synchronous iterative algorithms (iterative linear solvers, explicit PDE
// stencils, particle simulations) exchange every processor's partition every
// iteration and wait for all of it before computing. Speculative computation
// removes the wait: message contents that have not arrived are predicted
// from their history, computation proceeds on the predictions, and arriving
// messages are checked against an error threshold — accepted (the latency
// was masked by useful work) or repaired.
//
// This package is the public facade over the implementation packages:
//
//   - Applications implement App (plus optionally Speculator, Publisher,
//     Stopper) and run on a deterministic simulated workstation network via
//     RunCluster, or on real goroutines via the realtime runtime.
//   - The simulated network (machines, capacities, delay models) comes from
//     internal/cluster and internal/netmodel; speculation functions from
//     internal/predict; the §4 performance model from internal/perfmodel.
//
// See README.md for a walkthrough and EXPERIMENTS.md for the reproduction
// of every table and figure in the paper.
package specomp

import (
	"specomp/internal/cluster"
	"specomp/internal/core"
	"specomp/internal/netmodel"
	"specomp/internal/predict"
)

// App is one processor's view of a synchronous iterative application.
// See core.App for the full contract.
type App = core.App

// CheckResult reports the outcome of validating one speculated message.
type CheckResult = core.CheckResult

// Speculator is the optional domain-specific speculation extension.
type Speculator = core.Speculator

// Publisher is the optional broadcast-projection extension.
type Publisher = core.Publisher

// Stopper is the optional distributed-convergence-termination extension.
type Stopper = core.Stopper

// EngineConfig parameterizes the speculative engine (forward and backward
// windows, predictor, iteration count).
type EngineConfig = core.Config

// ClusterConfig describes the simulated workstation network.
type ClusterConfig = cluster.Config

// Machine is one simulated workstation (name + capacity in ops/s).
type Machine = cluster.Machine

// Proc is a running simulated processor, passed to app factories.
type Proc = cluster.Proc

// Result is one processor's outcome.
type Result = core.Result

// Stats aggregates one processor's speculation behaviour.
type Stats = core.Stats

// Factory builds one processor's App.
type Factory = core.Factory

// NetModel computes per-message network delays.
type NetModel = netmodel.Model

// Predictor is a generic speculation function.
type Predictor = predict.Predictor

// RunCluster builds the simulated cluster and executes the application on
// every processor. See core.RunCluster.
func RunCluster(cc ClusterConfig, cfg EngineConfig, factory Factory) ([]Result, error) {
	return core.RunCluster(cc, cfg, factory)
}

// TotalTime returns a run's wall (virtual) time: the last processor finish.
func TotalTime(results []Result) float64 { return core.TotalTime(results) }

// Aggregate combines per-processor stats.
func Aggregate(results []Result) core.AggregateStats { return core.Aggregate(results) }

// RelErrCheck is the stock element-wise relative-error check.
func RelErrCheck(threshold, opsPerElem float64, predicted, actual []float64) CheckResult {
	return core.RelErrCheck(threshold, opsPerElem, predicted, actual)
}

// LinearMachines builds capacities declining linearly fastest→fastest/ratio.
func LinearMachines(p int, fastest, ratio float64) []Machine {
	return cluster.LinearMachines(p, fastest, ratio)
}

// UniformMachines builds p identical machines.
func UniformMachines(p int, ops float64) []Machine { return cluster.UniformMachines(p, ops) }

// FixedNet is a constant point-to-point latency network.
func FixedNet(d float64) NetModel { return netmodel.Fixed{D: d} }

// SharedBusNet is an Ethernet-like serialized shared medium.
func SharedBusNet(overhead, bytesPerSec, hostOverhead float64) NetModel {
	return &netmodel.SharedBus{Overhead: overhead, BytesPerSec: bytesPerSec, HostOverhead: hostOverhead}
}

// LinearPredictor extrapolates along the last two snapshots (the generic
// analogue of the paper's velocity speculation).
func LinearPredictor() Predictor { return predict.Linear{} }

// ZeroOrderPredictor holds the last value.
func ZeroOrderPredictor() Predictor { return predict.ZeroOrder{} }
