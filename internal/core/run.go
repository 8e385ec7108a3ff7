package core

import (
	"fmt"

	"specomp/internal/cluster"
)

// Factory builds one processor's App. It runs inside the simulated process,
// so it may consult p for its identity, capacity and cluster size.
type Factory func(p *cluster.Proc) App

// RunCluster builds a cluster from cc, runs the synchronous iterative
// application on every processor with the given engine configuration, and
// returns the per-processor results (indexed by processor).
func RunCluster(cc cluster.Config, cfg Config, factory Factory) ([]Result, error) {
	c := cluster.New(cc)
	results := make([]Result, c.P())
	errs := make([]error, c.P())
	c.Start(func(p *cluster.Proc) {
		app := factory(p)
		res, err := Run(p, app, cfg)
		results[p.ID()] = res
		errs[p.ID()] = err
	})
	if err := c.Run(); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: processor %d: %w", i, err)
		}
	}
	return results, nil
}

// TotalTime returns the wall (virtual) time of a run: the maximum
// per-processor finish time, i.e. the paper's t_total.
func TotalTime(results []Result) float64 {
	worst := 0.0
	for _, r := range results {
		if r.Stats.TotalTime > worst {
			worst = r.Stats.TotalTime
		}
	}
	return worst
}

// Aggregate sums the per-processor stats and returns per-iteration phase
// averages over the slowest processor's clocks — the quantities in Table 2.
type AggregateStats struct {
	SpecsMade    int
	SpecsChecked int
	SpecsBad     int
	UnitsBad     int64
	UnitsTotal   int64
	Repairs      int
	CascadeRedos int
	Overruns     int
	Reconciles   int
	Retries      int // reliable-transport retransmissions
	DupsDropped  int // duplicate deliveries suppressed
	GiveUps      int // messages abandoned after MaxRetries
	// Predictions a cascade replaced with the arrived actual, never checked.
	SpecsSuperseded int

	Checkpoints  int     // engine snapshots persisted
	Restores     int     // post-crash state restorations
	CatchupIters int     // iterations replayed to re-reach the frontier
	Crashes      int     // processor crash events
	DowntimeSec  float64 // total virtual seconds processors spent dead

	// Phase times of the processor that finished last (per whole run).
	MaxCompute float64
	MaxComm    float64
	MaxSpec    float64
	MaxCheck   float64
	MaxCorrect float64
	Total      float64
}

// Aggregate combines per-processor results.
func Aggregate(results []Result) AggregateStats {
	var a AggregateStats
	lastIdx := 0
	for i, r := range results {
		s := r.Stats
		a.SpecsMade += s.SpecsMade
		a.SpecsChecked += s.SpecsChecked
		a.SpecsBad += s.SpecsBad
		a.SpecsSuperseded += s.SpecsSuperseded
		a.UnitsBad += s.UnitsBad
		a.UnitsTotal += s.UnitsTotal
		a.Repairs += s.Repairs
		a.CascadeRedos += s.CascadeRedos
		a.Overruns += s.Overruns
		a.Reconciles += s.Reconciles
		a.Retries += s.Net.Retries
		a.DupsDropped += s.Net.DupsDropped
		a.GiveUps += s.Net.GiveUps
		a.Checkpoints += s.Checkpoints
		a.Restores += s.Restores
		a.CatchupIters += s.CatchupIters
		a.Crashes += s.Net.Crashes
		a.DowntimeSec += s.Net.DowntimeSec
		if s.TotalTime > a.Total {
			a.Total = s.TotalTime
			lastIdx = i
		}
	}
	s := results[lastIdx].Stats
	a.MaxCompute = s.ComputeTime
	a.MaxComm = s.CommTime
	a.MaxSpec = s.SpecTime
	a.MaxCheck = s.CheckTime
	a.MaxCorrect = s.CorrectTime
	return a
}

// BadFraction returns the aggregate fraction of checked speculations that
// failed — the measured k.
func (a AggregateStats) BadFraction() float64 {
	if a.SpecsChecked == 0 {
		return 0
	}
	return float64(a.SpecsBad) / float64(a.SpecsChecked)
}

// UnitBadFraction returns the aggregate per-unit failure fraction.
func (a AggregateStats) UnitBadFraction() float64 {
	if a.UnitsTotal == 0 {
		return 0
	}
	return float64(a.UnitsBad) / float64(a.UnitsTotal)
}
