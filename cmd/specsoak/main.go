// Command specsoak soaks the distnet wire plane at paper-exceeding scale:
// one coordinator plus P node processes (default 64) on 127.0.0.1, each a
// real OS process re-executed from this binary, optionally under chaos
// (loss-free duplicates and delay spikes). It records the
// throughput measures the batching work is judged by — aggregate message
// rate, delivery-latency percentiles, and whole-process allocations per
// message — as Soak* series in the repo's benchmark baseline.
//
// Usage:
//
//	specsoak [-procs 64] [-iters 150] [-chaos]
//	         [-kill N] [-kill-seed S] [-journal-dir DIR]
//	         [-o BENCH_core.json] [-timeout 5m]
//
// With -o, the soak series are merged into the existing report (other
// series are kept); without it the summary only prints. The coordinator
// aggregates every node's metrics snapshots (the fleet plane), so the soak
// also records a fleet-level wire series — mean batch occupancy — that no
// single process can see. -journal-dir makes every node stream its run
// journal to a size-capped JSONL file there.
//
// The kill soak: -kill N runs the fleet twice — once fault-free to record
// the baseline field and wall time, then again under a seeded
// faults.CrashSchedule that SIGKILLs N live node processes mid-run. Every
// node runs under a supervisor, so each victim respawns with a bumped
// epoch, reclaims its rank, restores from coordinator custody, and the
// final field is asserted to converge on the fault-free baseline (and the
// serial reference) within the speculation tolerance. specsoak exits
// non-zero when convergence fails — this is the chaos gate CI runs.
// Throughput series are never recorded from a kill run.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"

	"specomp/internal/apps/heat"
	"specomp/internal/benchfmt"
	"specomp/internal/distnet"
	"specomp/internal/faults"
	"specomp/internal/netmodel"
)

// chaosModel is the soak's fault stack: loss-free (drops would only shift
// work to the engine's repair path; the soak targets the wire plane), but
// duplicate-heavy and spiky enough that batches ship under reordering
// pressure the whole run.
func chaosModel() netmodel.Model {
	return faults.Duplicate{
		Prob: 0.15,
		Inner: faults.DelaySpikes{
			Prob: 0.25, ExtraMin: 0.0005, ExtraMax: 0.003,
			Inner: netmodel.Fixed{D: 0.0001},
		},
	}
}

func main() {
	var (
		procs    = flag.Int("procs", 64, "number of node processes")
		iters    = flag.Int("iters", 150, "iterations per node")
		fw       = flag.Int("fw", 2, "forward speculation window")
		theta    = flag.Float64("theta", 1e-3, "speculation acceptance threshold θ")
		chaos    = flag.Bool("chaos", false, "inject duplicates and delay spikes on every node's send path")
		kill     = flag.Int("kill", 0, "SIGKILL this many live nodes mid-run on a seeded schedule and gate on convergence")
		killSeed = flag.Int64("kill-seed", 1, "seed of the kill schedule")
		ckpt     = flag.Int("checkpoint", 5, "checkpoint every K iterations during a kill run")
		deadline = flag.Float64("deadline", 0.25, "per-iteration wall-clock deadline (s) during a kill run")
		out      = flag.String("o", "", "merge Soak* series into this benchfmt report (e.g. BENCH_core.json)")
		timeout  = flag.Duration("timeout", 5*time.Minute, "overall run timeout")
		jdir     = flag.String("journal-dir", "", "stream each node's run journal to node-R.jsonl under this directory")
		jmax     = flag.Int64("journal-max", 64<<20, "per-node journal size cap in bytes before rotation")

		// Node mode, used internally to re-execute this binary as one rank.
		join  = flag.String("join", "", "internal: run as a node against this coordinator")
		seed  = flag.Int64("seed", 0, "internal: chaos seed for this node (0 = no chaos)")
		epoch = flag.Int("epoch", 0, "internal: incarnation epoch of this node process")
		hbms  = flag.Int("hb-ms", 0, "internal: heartbeat staleness window in ms (0 = default)")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "specsoak ", log.Ltime|log.Lmicroseconds)

	if *join != "" {
		cfg := distnet.NodeConfig{Coord: *join, Epoch: *epoch, JournalDir: *jdir, JournalMaxBytes: *jmax}
		if *seed != 0 {
			cfg.Faults = chaosModel()
			cfg.FaultSeed = *seed
		}
		if *hbms > 0 {
			cfg.HeartbeatTimeout = time.Duration(*hbms) * time.Millisecond
		}
		if _, err := distnet.RunNode(cfg); err != nil {
			logger.Fatalf("node: %v", err)
		}
		return
	}

	spec := distnet.RunSpec{
		App: "heat", Procs: *procs, MaxIter: *iters, FW: *fw, Theta: *theta,
		// Two grid rows per rank keeps every rank a real participant with
		// boundary traffic both ways at any P; the floor keeps small-P runs
		// from degenerating into trivial strips.
		Rows: max(2*(*procs), 64), Cols: 32,
		Job: "soak",
	}
	self, err := os.Executable()
	if err != nil {
		self = os.Args[0]
	}
	if *kill > 0 {
		// Crash tolerance is judged against the fault-free answer, so a kill
		// run needs checkpoints to restore from and a deadline so survivors
		// bridge the outage on speculation instead of blocking.
		spec.CheckpointEvery = *ckpt
		spec.Deadline = *deadline
		spec.MaxCrashOverrun = 8
	}

	// run executes one whole multi-process run as a distnet.LocalFleet: every
	// slot supervised (a fault-free run simply never respawns), the scheduled
	// slots SIGKILLed at their wall-clock offsets.
	var fleet *distnet.FleetObs // only the plain soak reads one; kill runs go without
	run := func(kills faults.CrashSchedule) (*distnet.LocalFleet, []distnet.NodeReport, error) {
		local, err := distnet.StartLocal(
			distnet.CoordConfig{Spec: spec, Timeout: *timeout, Fleet: fleet},
			distnet.SuperviseConfig{Logf: logger.Printf},
			func(coord string, slot, epoch int) (*exec.Cmd, error) {
				args := []string{"-join", coord, "-epoch", strconv.Itoa(epoch)}
				if *chaos {
					args = append(args, "-seed", strconv.Itoa(1000+slot))
				}
				if len(kills) > 0 {
					// Tight heartbeats so survivors detect the victim and bridge
					// on speculation well inside the downtime window.
					args = append(args, "-hb-ms", "500")
				}
				if *jdir != "" {
					args = append(args, "-journal-dir", *jdir, "-journal-max", strconv.FormatInt(*jmax, 10))
				}
				cmd := exec.Command(self, args...)
				cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
				return cmd, nil
			})
		if err != nil {
			return nil, nil, err
		}
		// The killer. The schedule's Downtime is advisory here — a real
		// process's outage is the supervisor's detect + backoff + relaunch +
		// rejoin latency.
		start := time.Now()
		go func() {
			for _, ev := range kills {
				time.Sleep(time.Until(start.Add(time.Duration(ev.At * float64(time.Second)))))
				logger.Printf("kill schedule: SIGKILL slot %d at +%.2fs", ev.Proc, time.Since(start).Seconds())
				local.Kill(ev.Proc)
			}
		}()
		reports, err, childErr := local.Wait()
		if childErr != nil {
			logger.Printf("warning: supervisor latched %v", childErr)
		}
		return local, reports, err
	}
	if *kill > 0 {
		killSoak(logger, spec, run, *kill, *killSeed)
		return
	}
	fleet = distnet.NewFleetObs(spec.Job)
	_, reports, err := run(nil)
	if err != nil {
		logger.Fatalf("%v", err)
	}

	// Every rank must have run the full schedule: a node that silently
	// stalled or shed iterations voids the soak.
	failed := false
	for _, r := range reports {
		if r.Iters != spec.MaxIter {
			logger.Printf("FAIL: rank %d ran %d/%d iterations", r.Rank, r.Iters, spec.MaxIter)
			failed = true
		}
		if r.MsgsRecvd == 0 || r.FramesSent == 0 {
			logger.Printf("FAIL: rank %d reported no wire traffic (%d msgs in, %d frames out)",
				r.Rank, r.MsgsRecvd, r.FramesSent)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}

	var (
		totalMsgs, totalFrames int
		maxWall, p99Worst      float64
		p50s                   []float64
		allocMean              float64
	)
	for _, r := range reports {
		totalMsgs += r.MsgsRecvd
		totalFrames += r.FramesSent
		maxWall = max(maxWall, r.WallSec)
		p99Worst = max(p99Worst, r.LatP99Sec)
		p50s = append(p50s, r.LatP50Sec)
		allocMean += r.AllocsPerMsg / float64(len(reports))
	}
	sort.Float64s(p50s)
	p50Median := p50s[len(p50s)/2]
	msgsPerFrame := float64(totalMsgs) / float64(totalFrames)

	fmt.Printf("soak P=%d iters=%d: %d msgs in %d frames (%.1f msgs/frame)\n",
		spec.Procs, spec.MaxIter, totalMsgs, totalFrames, msgsPerFrame)
	fmt.Printf("  rate      %.0f msgs/sec aggregate (slowest node %.3fs wall)\n",
		float64(totalMsgs)/maxWall, maxWall)
	fmt.Printf("  delivery  p50 %.0fµs (median rank)   p99 %.0fµs (worst rank)\n",
		p50Median*1e6, p99Worst*1e6)
	fmt.Printf("  allocs    %.1f per message (whole process, mean rank)\n", allocMean)

	// A fleet-level wire series from the aggregated metrics plane: mean batch
	// occupancy (msgs per flushed batch) across every node's final snapshot —
	// a number no single process can report.
	batchMean := 0.0
	tot := fleet.Totals()
	if c := tot[distnet.MetricBatchOccupancy+"_count"]; c > 0 {
		batchMean = tot[distnet.MetricBatchOccupancy+"_sum"] / c
		fmt.Printf("  fleet     %.1f msgs/batch mean occupancy (%d nodes aggregated)\n",
			batchMean, len(fleet.Status().Nodes))
	}

	if *out == "" {
		return
	}
	var series []benchfmt.Result
	add := func(name string, iters int, nsPerOp float64, allocsPerOp int64) {
		series = append(series, benchfmt.Result{Pkg: "specomp/cmd/specsoak", Name: fmt.Sprintf("%s/P%d", name, spec.Procs),
			Iters: int64(iters), NsPerOp: nsPerOp, AllocsPerOp: allocsPerOp})
	}
	// SoakMsgRate's ns_per_op = wall nanoseconds per delivered message across
	// the whole mesh: the aggregate-throughput series (lower is faster). The
	// fleet series holds a raw mean (msgs per flushed batch) there — a
	// synthetic series under the shared schema.
	add("SoakMsgRate", totalMsgs, 1e9*maxWall/float64(totalMsgs), 0)
	add("SoakDeliveryP50", totalMsgs, 1e9*p50Median, 0)
	add("SoakDeliveryP99", totalMsgs, 1e9*p99Worst, 0)
	add("SoakAllocsPerMsg", totalMsgs, 0, int64(allocMean+0.5))
	if batchMean > 0 {
		add("SoakBatchOccupancy", totalFrames, batchMean, 0)
	}
	rep, err := benchfmt.Load(*out)
	if err != nil && !os.IsNotExist(err) {
		logger.Fatalf("%v", err)
	}
	rep.Merge(series...)
	if err := rep.Save(*out); err != nil {
		logger.Fatalf("%v", err)
	}
	logger.Printf("merged %d Soak* series into %s", len(series), *out)
}

// convergeTol is the speculation tolerance every substrate's heat runs are
// judged by (the same bound the distnet and simulator tests use).
const convergeTol = 0.5

// killSoak runs the fault-free baseline, then the same fleet under a
// seeded SIGKILL schedule, and gates on the crashed run converging to the
// baseline. Exits the process non-zero on any failed assertion.
func killSoak(logger *log.Logger, spec distnet.RunSpec,
	run func(faults.CrashSchedule) (*distnet.LocalFleet, []distnet.NodeReport, error), kills int, killSeed int64) {

	logger.Printf("kill soak: fault-free baseline first (P=%d, %d iters)", spec.Procs, spec.MaxIter)
	_, baseReports, err := run(nil)
	if err != nil {
		logger.Fatalf("baseline run: %v", err)
	}
	baseField, err := distnet.AssembleHeat(spec, baseReports)
	if err != nil {
		logger.Fatalf("baseline run: %v", err)
	}
	baseWall := 0.0
	for _, r := range baseReports {
		baseWall = max(baseWall, r.WallSec)
	}

	// The schedule spreads the kills over the meat of the run, scaled to the
	// measured baseline wall time; the floor keeps a kill from landing while
	// the mesh is still assembling. The crashed run only ever takes longer
	// than the baseline, so the window stays mid-run.
	from := max(0.15*baseWall, 0.5)
	until := max(0.65*baseWall, from+0.5)
	sched := faults.Chaos(killSeed, spec.Procs, kills, from, until, 0.2, 0.5)
	for _, ev := range sched {
		logger.Printf("kill schedule: slot %d at +%.2fs", ev.Proc, ev.At)
	}

	logger.Printf("kill soak: crash run under supervision (%d scheduled SIGKILLs, seed %d)", len(sched), killSeed)
	local, reports, err := run(sched)
	if err != nil {
		logger.Fatalf("crash run did not survive the kill schedule: %v", err)
	}
	respawns, stats := local.Respawns(), local.Coordinator().Stats()
	crashField, err := distnet.AssembleHeat(spec, reports)
	if err != nil {
		logger.Fatalf("crash run: %v", err)
	}

	revived := 0
	for _, r := range reports {
		if r.Epoch > 0 {
			revived++
		}
	}
	fmt.Printf("kill soak P=%d iters=%d: %d SIGKILLs, %d respawns, %d ranks vacated, %d rejoined, %d revived results\n",
		spec.Procs, spec.MaxIter, len(sched), respawns, stats.Vacated, stats.Rejoins, revived)

	failed := false
	if respawns == 0 {
		// The fault-free run outran its own schedule (a faster machine, a
		// faster kernel): a kill soak that killed nothing proves nothing.
		logger.Printf("FAIL: none of the %d scheduled kills hit a live node; raise -iters", len(sched))
		failed = true
	} else if respawns < len(sched) {
		// A kill that fired after a node's clean exit triggers no respawn;
		// every kill that hit a live node must have.
		logger.Printf("note: %d respawns for %d scheduled kills (some kills landed after node completion)",
			respawns, len(sched))
	}
	if stats.Rejoins < stats.Vacated {
		logger.Printf("FAIL: %d vacated ranks but only %d rejoins", stats.Vacated, stats.Rejoins)
		failed = true
	}
	for _, r := range reports {
		if r.Iters != spec.MaxIter {
			logger.Printf("FAIL: rank %d ran %d/%d iterations", r.Rank, r.Iters, spec.MaxIter)
			failed = true
		}
	}

	// The gate: the crashed fleet lands on the fault-free answer.
	serial := heat.DefaultGrid(spec.Rows, spec.Cols).SerialRun(spec.MaxIter)
	dBase := heat.MaxDiff(crashField, baseField)
	dSerial := heat.MaxDiff(crashField, serial)
	fmt.Printf("  convergence  max|Δ| vs fault-free baseline %.4g, vs serial reference %.4g (tolerance %g)\n",
		dBase, dSerial, convergeTol)
	if dBase > convergeTol {
		logger.Printf("FAIL: crashed run deviates %g from the fault-free baseline", dBase)
		failed = true
	}
	if dSerial > convergeTol {
		logger.Printf("FAIL: crashed run deviates %g from the serial reference", dSerial)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
	logger.Printf("kill soak passed: crash-tolerant run converged on the fault-free baseline")
}
