package experiments

import (
	"fmt"

	"specomp/internal/cluster"
	"specomp/internal/core"
	"specomp/internal/nbody"
	"specomp/internal/netmodel"
	"specomp/internal/obs"
	"specomp/internal/partition"
)

// NBodyConfig parameterizes the §5 testbed simulation: a heterogeneous
// workstation network on a shared Ethernet-like bus running the O(N²)
// N-body application.
//
// The default calibration reproduces the scale of the paper's Table 2
// (16 processors, 1000 particles: compute ≈ 5.8 s/iter, blocked
// communication ≈ 4.7 s/iter at FW=0): capacities are "effective ops/s" as
// the paper measured per machine, declining linearly with M_1 = 10·M_16;
// the bus charges a per-message overhead (PVM protocol cost) plus
// 10 Mb/s transfer time, and messages serialize on the shared medium.
type NBodyConfig struct {
	N        int     // particles
	Iters    int     // timesteps per run
	MaxProcs int     // size of the machine set (paper: 16)
	Theta    float64 // eq.-11 threshold θ
	Seed     int64

	FastestOps float64 // M_1, effective ops/s
	CapRatio   float64 // M_1 / M_p

	BusOverhead  float64 // per-message bus occupancy, seconds
	BusBandwidth float64 // bytes per second
	HostOverhead float64 // per-message end-host latency, seconds

	// JitterFrac scales each delay by U[1−f, 1+f] (background traffic).
	JitterFrac float64
	// SpikeProb/SpikeMin/SpikeMax add occasional large extra delays — the
	// transient excesses that make forward windows > 1 worthwhile.
	SpikeProb, SpikeMin, SpikeMax float64

	// Dt is the simulation timestep Δt. Speculation error grows as a·Δt²,
	// so Δt controls the recomputation rate k at a given θ.
	Dt float64

	// IC generates the initial particles (defaults to UniformSphere).
	IC func(n int, seed int64) []nbody.Particle

	// Obs, when non-nil, instruments every run launched through this config
	// (engine and transport metrics accumulate into the shared registry).
	Obs *obs.Registry
}

// DefaultNBody is the full paper-scale configuration.
func DefaultNBody() NBodyConfig {
	return NBodyConfig{
		N:        1000,
		Iters:    10,
		MaxProcs: 16,
		Theta:    0.01,
		Seed:     1994,

		FastestOps: 1.364e6,
		CapRatio:   10,

		BusOverhead:  0.012,
		BusBandwidth: 1.25e6, // 10 Mb/s Ethernet
		HostOverhead: 0.002,

		JitterFrac: 0.3,
		SpikeProb:  0.005,
		SpikeMin:   2.0,
		SpikeMax:   8.0,

		Dt: 0.06,

		IC: nbody.UniformSphere,
	}
}

// QuickNBody is a scaled-down configuration for tests. The regime of the
// full setup is preserved: per-iteration compute stays ≈ 5.8 s, blocked
// communication at the largest processor count stays ≈ 45% of the
// no-speculation iteration time, and checking overhead stays well below the
// maskable communication.
func QuickNBody() NBodyConfig {
	cfg := DefaultNBody()
	cfg.N = 160
	cfg.Iters = 8
	cfg.MaxProcs = 8
	// Scale capacity with N² so per-iteration compute time stays ~5.8 s
	// (MaxProcs halves, so ΣM needs the extra factor of 2).
	full := DefaultNBody()
	scale := float64(cfg.N*cfg.N) / float64(full.N*full.N)
	cfg.FastestOps = full.FastestOps * scale * 2
	// With only p(p−1)=56 messages per iteration, a larger per-message
	// overhead keeps communication at the full setup's ~45% share.
	cfg.BusOverhead = 0.045
	return cfg
}

// machines returns the full ordered machine set; a p-processor run uses the
// fastest p machines, exactly as the paper's ordered set P.
func (cfg NBodyConfig) machines() []cluster.Machine {
	return cluster.LinearMachines(cfg.MaxProcs, cfg.FastestOps, cfg.CapRatio)
}

// net builds a fresh shared-bus network model (stateful; one per run),
// wrapped with jitter and occasional heavy-tailed spikes.
func (cfg NBodyConfig) net() netmodel.Model {
	var m netmodel.Model = &netmodel.SharedBus{
		Overhead:     cfg.BusOverhead,
		BytesPerSec:  cfg.BusBandwidth,
		HostOverhead: cfg.HostOverhead,
	}
	if cfg.JitterFrac > 0 {
		m = netmodel.Jitter{Inner: m, Frac: cfg.JitterFrac}
	}
	if cfg.SpikeProb > 0 {
		m = netmodel.RandomSpikes{Inner: m, Prob: cfg.SpikeProb, ExtraMin: cfg.SpikeMin, ExtraMax: cfg.SpikeMax}
	}
	return m
}

// Run executes one N-body simulation on the fastest p machines with forward
// window fw and threshold theta, returning the per-processor results.
func (cfg NBodyConfig) Run(p, fw int, theta float64, instr *nbody.Instrument) ([]core.Result, error) {
	if p < 1 || p > cfg.MaxProcs {
		return nil, fmt.Errorf("experiments: p=%d out of range [1, %d]", p, cfg.MaxProcs)
	}
	cfg.Theta = theta
	return cfg.runNBodyCustom(p, core.Config{FW: fw, MaxIter: cfg.Iters, Metrics: cfg.Obs}, nil, instr)
}

// runNBodyCustom runs the N-body workload on the fastest p machines with an
// arbitrary engine config and app wrapper; the simulated network shares the
// engine's metrics registry.
func (cfg NBodyConfig) runNBodyCustom(p int, ecfg core.Config, wrap func(core.App) core.App, instr *nbody.Instrument) ([]core.Result, error) {
	ms := cfg.machines()[:p]
	caps := make([]float64, p)
	for i, m := range ms {
		caps[i] = m.Ops
	}
	counts := partition.Proportional(cfg.N, caps)
	ic := cfg.IC
	if ic == nil {
		ic = nbody.UniformSphere
	}
	blocks := nbody.SplitParticles(ic(cfg.N, cfg.Seed), counts)
	sim := nbody.DefaultSim()
	if cfg.Dt > 0 {
		sim.Dt = cfg.Dt
	}
	return core.RunCluster(
		cluster.Config{Machines: ms, Net: cfg.net(), Seed: cfg.Seed, Metrics: ecfg.Metrics},
		ecfg,
		func(pr *cluster.Proc) core.App {
			var app core.App = nbody.NewApp(sim, blocks[pr.ID()], cfg.N, pr.ID(), cfg.Theta, instr)
			if wrap != nil {
				app = wrap(app)
			}
			return app
		})
}

// SerialTime returns the per-run virtual time on the fastest machine alone.
func (cfg NBodyConfig) SerialTime() (float64, error) {
	res, err := cfg.Run(1, 0, cfg.Theta, nil)
	if err != nil {
		return 0, err
	}
	return core.TotalTime(res), nil
}

// SumCaps returns Σ M_i over the fastest p machines.
func (cfg NBodyConfig) SumCaps(p int) float64 {
	return cluster.TotalOps(cfg.machines()[:p])
}
