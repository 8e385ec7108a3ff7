package experiments

import (
	"fmt"
	"math"

	"specomp/internal/cluster"
	"specomp/internal/core"
	"specomp/internal/nbody"
	"specomp/internal/perfmodel"
)

// Figure9 reproduces the paper's Figure 9: the §4 performance model,
// parameterized from the N-body implementation's per-variable costs and the
// measured network behaviour, overlaid on the measured (simulated) speedups
// with and without speculation. The paper reports model error within 10%
// for ≤8 processors and within ~25% beyond.
func Figure9(cfg NBodyConfig) (Report, error) {
	rep := Report{
		ID:    "fig9",
		Title: fmt.Sprintf("model vs measured speedup (N=%d, θ=%g)", cfg.N, cfg.Theta),
	}
	serial, err := cfg.SerialTime()
	if err != nil {
		return rep, err
	}

	model := perfmodel.Params{
		N:     cfg.N,
		FComp: nbody.PairOps * float64(cfg.N), // per-variable: N pair forces
		FSpec: nbody.SpecOpsPerParticle,
		// eq.-11 checking costs a per-remote part plus a per-(remote, local)
		// pair part that scales with each processor's own allocation.
		FCheck:            nbody.CheckOpsPerRemote,
		FCheckPerLocalVar: nbody.CheckOpsPerPair,
		Caps:              cluster.Capacities(cfg.machines()),
		TComm:             cfg.modelTComm(),
		K:                 0.02,
	}
	if err := model.Validate(); err != nil {
		return rep, err
	}

	measuredNo := Series{Name: "measured FW=0"}
	measuredSp := Series{Name: "measured FW=1"}
	modelNo := Series{Name: "model no-spec"}
	modelSp := Series{Name: "model spec"}
	var worstSmall, worstLarge float64
	for p := 1; p <= cfg.MaxProcs; p++ {
		r0, err := cfg.Run(p, 0, cfg.Theta, nil)
		if err != nil {
			return rep, err
		}
		r1, err := cfg.Run(p, 1, cfg.Theta, nil)
		if err != nil {
			return rep, err
		}
		m0 := serial / core.TotalTime(r0)
		m1 := serial / core.TotalTime(r1)
		p0 := model.SpeedupNoSpec(p)
		p1 := model.SpeedupSpec(p)
		x := float64(p)
		measuredNo.X, measuredNo.Y = append(measuredNo.X, x), append(measuredNo.Y, m0)
		measuredSp.X, measuredSp.Y = append(measuredSp.X, x), append(measuredSp.Y, m1)
		modelNo.X, modelNo.Y = append(modelNo.X, x), append(modelNo.Y, p0)
		modelSp.X, modelSp.Y = append(modelSp.X, x), append(modelSp.Y, p1)
		err0 := math.Abs(p0-m0) / m0
		err1 := math.Abs(p1-m1) / m1
		worst := math.Max(err0, err1)
		if p <= 8 && worst > worstSmall {
			worstSmall = worst
		}
		if p > 8 && worst > worstLarge {
			worstLarge = worst
		}
	}
	rep.Series = []Series{measuredNo, measuredSp, modelNo, modelSp}
	rep.Lines = append(rep.Lines,
		fmt.Sprintf("worst model error: %.1f%% for p<=8, %.1f%% for p>8 (paper: <10%% and ~25%%)",
			worstSmall*100, worstLarge*100))
	return rep, nil
}

// modelTComm estimates the per-iteration communication time analytically
// from the shared-bus parameters: p(p−1) messages serialize on the bus, each
// occupying overhead + bytes/bandwidth, plus the expected contribution of
// heavy-tailed delay spikes to the last arrival.
func (cfg NBodyConfig) modelTComm() func(p int) float64 {
	return func(p int) float64 {
		if p <= 1 {
			return 0
		}
		msgs := float64(p * (p - 1))
		bytes := float64(p-1) * (float64(cfg.N)*nbody.Floats*8 + 64*float64(p))
		base := msgs*cfg.BusOverhead + bytes/cfg.BusBandwidth + cfg.HostOverhead
		if cfg.SpikeProb > 0 {
			// Probability at least one of the iteration's messages spikes,
			// times the mean spike size.
			pAny := 1 - math.Pow(1-cfg.SpikeProb, msgs)
			base += pAny * (cfg.SpikeMin + cfg.SpikeMax) / 2
		}
		return base
	}
}
