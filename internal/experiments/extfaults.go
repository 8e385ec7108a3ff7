package experiments

import (
	"errors"
	"fmt"

	"specomp/internal/cluster"
	"specomp/internal/core"
	"specomp/internal/faults"
	"specomp/internal/netmodel"
	"specomp/internal/simtime"
)

// ExtFaults studies speculative computation on an unreliable network — the
// regime the paper's PVM testbed hid behind TCP. Messages are dropped and
// delayed by a seeded fault profile; a retransmission layer in the cluster
// recovers the losses, and the engine's deadline-based graceful degradation
// rides out a straggling processor. The experiment shows three things:
//
//  1. without retransmission, one lost message deadlocks the blocking
//     (FW = 0) algorithm;
//  2. with retransmission, speculation (FW >= 1) masks the recovery latency
//     that blocking runs must eat, at bounded result error;
//  3. with a receive deadline, speculation overruns the forward window past
//     a straggler instead of stalling behind it, reconciling afterwards.
func ExtFaults(cfg NBodyConfig) (Report, error) {
	rep := Report{
		ID: "ext-faults",
		Title: fmt.Sprintf("fault injection: loss + spikes + straggler, p=%d, N=%d (extension)",
			cfg.MaxProcs, cfg.N),
	}
	const dropProb = 0.02

	type outcome struct {
		results []core.Result
		finals  []float64
		time    float64
	}
	run := func(fw int, net func() netmodel.Model, reliable bool, ecfg core.Config) (outcome, error) {
		ecfg.FW = fw
		ecfg.MaxIter = cfg.Iters
		ecfg.Metrics = cfg.Obs
		// The retry timeout must sit above the bus's queueing delay (tens of
		// serialized messages per iteration) or every ack that queues behind a
		// busy medium triggers a spurious retransmission storm.
		results, err := cfg.runNBodyCustom(cfg.MaxProcs,
			cluster.Config{Net: net(), Reliable: reliable, RetryTimeout: 5, Metrics: cfg.Obs},
			ecfg, nil, nil)
		if err != nil {
			return outcome{}, err
		}
		var finals []float64
		for _, r := range results {
			finals = append(finals, r.Final...)
		}
		return outcome{results: results, finals: finals, time: core.TotalTime(results)}, nil
	}

	lossy := func() netmodel.Model {
		return faults.Profile(cfg.net(), dropProb, 0.01, 1.0, 4.0)
	}

	// 1. Fault-free reference and the fatal baseline: the same lossy profile
	// with no retransmission parks a blocking receiver forever on the first
	// dropped message.
	ref, err := run(0, cfg.net, false, core.Config{})
	if err != nil {
		return rep, err
	}
	rep.Lines = append(rep.Lines,
		fmt.Sprintf("fault-free  FW=0 blocking:              %8.2f s (reference)", ref.time))
	if _, err := run(0, lossy, false, core.Config{}); errors.Is(err, simtime.ErrDeadlock) {
		rep.Lines = append(rep.Lines,
			fmt.Sprintf("%.0f%% loss    FW=0 no retransmission:     deadlock (stalls on first lost message)", 100*dropProb))
	} else if err != nil {
		return rep, err
	} else {
		rep.Lines = append(rep.Lines,
			fmt.Sprintf("%.0f%% loss    FW=0 no retransmission:     completed (no message lost at this seed)", 100*dropProb))
	}

	// 2. Retransmission makes the lossy network survivable at every FW;
	// speculation then masks the recovery latency that FW=0 eats in full.
	clean := Series{Name: "fault-free"}
	faulty := Series{Name: "faulty-reliable"}
	retrans := Series{Name: "retransmits"}
	dups := Series{Name: "dups-dropped"}
	giveups := Series{Name: "giveups"}
	for _, fw := range []int{0, 1, 2} {
		oc, err := run(fw, cfg.net, false, core.Config{})
		if err != nil {
			return rep, err
		}
		of, err := run(fw, lossy, true, core.Config{})
		if err != nil {
			return rep, err
		}
		agg := core.Aggregate(of.results)
		rep.Lines = append(rep.Lines, fmt.Sprintf(
			"%.0f%% loss    FW=%d reliable:              %8.2f s (+%.0f%% vs fault-free %.2f s), maxerr %.2e, %d retrans, %d dups dropped",
			100*dropProb, fw, of.time, 100*(of.time/oc.time-1), oc.time,
			core.MaxAbsErr(of.finals, ref.finals), agg.Retries, agg.DupsDropped))
		clean.X = append(clean.X, float64(fw))
		clean.Y = append(clean.Y, oc.time)
		faulty.X = append(faulty.X, float64(fw))
		faulty.Y = append(faulty.Y, of.time)
		retrans.X = append(retrans.X, float64(fw))
		retrans.Y = append(retrans.Y, float64(agg.Retries))
		dups.X = append(dups.X, float64(fw))
		dups.Y = append(dups.Y, float64(agg.DupsDropped))
		giveups.X = append(giveups.X, float64(fw))
		giveups.Y = append(giveups.Y, float64(agg.GiveUps))
	}
	rep.Series = []Series{clean, faulty, retrans, dups, giveups}

	// 3. Graceful degradation: a processor's outgoing messages stall for a
	// window mid-run. With a receive deadline the engine overruns the forward
	// window on speculation instead of blocking behind the straggler.
	// The stall must exceed FW iteration times, or the forward window alone
	// absorbs it and the deadline has nothing to add.
	straggler := func() netmodel.Model {
		return faults.Straggler{
			Inner: cfg.net(),
			Proc:  cfg.MaxProcs - 1,
			From:  0.30 * ref.time, Until: 0.60 * ref.time,
			Extra: 0.20 * ref.time,
		}
	}
	blocked, err := run(1, straggler, false, core.Config{})
	if err != nil {
		return rep, err
	}
	deadline := 0.02 * ref.time
	degraded, err := run(1, straggler, false, core.Config{Deadline: deadline, MaxOverrun: 3})
	if err != nil {
		return rep, err
	}
	agg := core.Aggregate(degraded.results)
	rep.Lines = append(rep.Lines, fmt.Sprintf(
		"straggler   FW=1 blocking:              %8.2f s", blocked.time))
	rep.Lines = append(rep.Lines, fmt.Sprintf(
		"straggler   FW=1 deadline %.1fs:        %8.2f s (%d overruns, %d reconciled), maxerr %.2e vs fault-free",
		deadline, degraded.time, agg.Overruns, agg.Reconciles,
		core.MaxAbsErr(degraded.finals, ref.finals)))
	verdict := "degradation trades the stall for reconciliation work"
	if degraded.time < blocked.time {
		verdict = "overrunning the forward window beats waiting out the straggler"
	}
	rep.Lines = append(rep.Lines, verdict)
	return rep, nil
}
