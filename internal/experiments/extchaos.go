package experiments

import (
	"errors"
	"fmt"

	"specomp/internal/apps/heat"
	"specomp/internal/apps/jacobi"
	"specomp/internal/apps/pagerank"
	"specomp/internal/apps/sor"
	"specomp/internal/checkpoint"
	"specomp/internal/cluster"
	"specomp/internal/core"
	"specomp/internal/faults"
	"specomp/internal/netmodel"
	"specomp/internal/obs"
	"specomp/internal/partition"
	"specomp/internal/simtime"
)

// ChaosCrashes is the minimum number of crashes each chaos soak run injects.
const ChaosCrashes = 2

// chaosRun carries the per-run plumbing the soak harness threads into each
// application driver: the crash schedule, the crash-surviving checkpoint
// store, the journal that feeds the error-decay series, and the virtual-time
// ceiling that turns a recovery deadlock into a clean failure.
type chaosRun struct {
	crashes faults.CrashSchedule
	store   checkpoint.Store
	journal *obs.Journal
	horizon float64
	obs     *obs.Registry
}

// clusterConfig merges the soak plumbing into an application's base cluster
// configuration. Every chaos target runs over reliable delivery — crash
// recovery is built on retransmission and epoch filtering.
func (x chaosRun) clusterConfig(cc cluster.Config) cluster.Config {
	cc.Reliable = true
	cc.Crashes = x.crashes
	cc.Journal = x.journal
	cc.Horizon = x.horizon
	cc.Metrics = x.obs
	return cc
}

// engineConfig merges the soak plumbing into an application's base engine
// configuration: frequent cheap checkpoints, and a deepened overrun budget so
// survivors bridge an outage on speculation instead of stalling behind it.
func (x chaosRun) engineConfig(ec core.Config) core.Config {
	ec.CheckpointEvery = 5
	ec.CheckpointStore = x.store
	ec.CheckpointOps = 100
	ec.MaxCrashOverrun = 8
	ec.Journal = x.journal
	ec.Metrics = x.obs
	return ec
}

// chaosTarget is one application in the soak matrix. run executes the app
// under the given plumbing; tol bounds the final-state divergence from the
// fault-free baseline that recovery is allowed to leave behind.
type chaosTarget struct {
	name  string
	procs int
	tol   float64
	run   func(x chaosRun) ([]core.Result, error)
}

// chaosTargets builds the soak matrix: every application in the repository,
// each at a modest size so the full matrix stays test-suite friendly.
// Convergence-based stopping is disabled everywhere (apps run to MaxIter):
// a catch-up gap makes early-stop decisions diverge across processors, so a
// fixed iteration count is the only apples-to-apples comparison.
func chaosTargets(cfg NBodyConfig) []chaosTarget {
	// Tolerances are θ-scale, calibrated to each app's value range: a crash
	// shifts message timing, which flips which iterations consumed an actual
	// versus an accepted sub-θ prediction, and those differences persist —
	// the same approximation class as fault-free speculation, not a recovery
	// defect. Deadline > 0 targets additionally exercise the bridging path
	// (survivors overrun the forward window while a peer is down); N-body
	// runs with Deadline = 0 — blocking recovery — because its chaotic
	// dynamics amplify any contamination, and the blocking replay is
	// deterministic enough to demand near-exact agreement.
	return []chaosTarget{
		{name: "heat", procs: 4, tol: 5e-3, run: func(x chaosRun) ([]core.Result, error) {
			g := heat.DefaultGrid(32, 16)
			machines := cluster.UniformMachines(4, 50_000)
			blocks := partition.Blocks(g.Rows, cluster.Capacities(machines))
			return core.RunCluster(
				x.clusterConfig(cluster.Config{Machines: machines, Net: netmodel.Fixed{D: 0.02}, RetryTimeout: 0.5}),
				x.engineConfig(core.Config{FW: 1, MaxIter: 120, Deadline: 0.3}),
				func(p *cluster.Proc) core.App { return heat.NewApp(g, blocks, p.ID(), 1e-3) })
		}},
		{name: "jacobi", procs: 6, tol: 1e-9, run: func(x chaosRun) ([]core.Result, error) {
			prob := jacobi.NewDiagonallyDominant(120, 7)
			machines := cluster.LinearMachines(6, 20_000, 5)
			blocks := partition.Blocks(prob.N, cluster.Capacities(machines))
			return core.RunCluster(
				x.clusterConfig(cluster.Config{Machines: machines, Net: netmodel.Fixed{D: 0.4}, RetryTimeout: 2}),
				x.engineConfig(core.Config{FW: 1, MaxIter: 60, Deadline: 3}),
				func(p *cluster.Proc) core.App { return jacobi.NewApp(prob, blocks, p.ID(), 1e-4) })
		}},
		{name: "pagerank", procs: 4, tol: 1e-9, run: func(x chaosRun) ([]core.Result, error) {
			g := pagerank.NewRandomGraph(400, 8, cfg.Seed)
			prob := pagerank.NewProblem(g, 0.85)
			machines := cluster.UniformMachines(4, 40_000)
			blocks := partition.Blocks(g.N, cluster.Capacities(machines))
			return core.RunCluster(
				x.clusterConfig(cluster.Config{Machines: machines, Net: netmodel.Fixed{D: 0.05}, RetryTimeout: 0.5}),
				x.engineConfig(core.Config{FW: 1, MaxIter: 60, Deadline: 0.5}),
				func(p *cluster.Proc) core.App { return pagerank.NewApp(prob, blocks, p.ID(), 0.05) })
		}},
		{name: "sor", procs: 4, tol: 0.2, run: func(x chaosRun) ([]core.Result, error) {
			// Grid values are O(100), so the θ=1e-3 relative check budget
			// admits ~0.1 absolute per-element drift.
			g := sor.DefaultGrid(32, 16)
			machines := cluster.UniformMachines(4, 10_000)
			blocks := partition.Blocks(g.Rows, cluster.Capacities(machines))
			return core.RunCluster(
				x.clusterConfig(cluster.Config{Machines: machines, Net: netmodel.Fixed{D: 0.05}, RetryTimeout: 0.5}),
				x.engineConfig(core.Config{FW: 1, BW: 3, MaxIter: 100, Deadline: 0.8}),
				func(p *cluster.Proc) core.App { return sor.NewApp(g, blocks, p.ID(), 1e-3) })
		}},
		{name: "nbody", procs: 4, tol: 1e-9, run: func(x chaosRun) ([]core.Result, error) {
			// Four equal 60 000 ops/s machines: a linear set with ratio 1.
			c := cfg
			c.N, c.MaxProcs, c.FastestOps, c.CapRatio = 96, 4, 60_000, 1
			return c.runNBodyCustom(4,
				x.clusterConfig(cluster.Config{Net: &netmodel.SharedBus{Overhead: 0.01, BytesPerSec: 1.25e6}, RetryTimeout: 2}),
				x.engineConfig(core.Config{FW: 1, MaxIter: 30}), nil, nil)
		}},
	}
}

// ExtChaos is the chaos soak: every application runs twice, once fault-free
// and once with randomly scheduled processor crashes (checkpoint + rejoin
// recovery enabled), and the harness asserts the recovered run converges to
// the fault-free final state within tolerance and inside a bounded virtual
// time. The per-app series plot the post-crash prediction-error decay: after
// a processor rejoins, how quickly its peers' validations of it return to
// clean — the recovery-time analogue of the paper's speculation-error decay.
func ExtChaos(cfg NBodyConfig) (Report, error) {
	rep := Report{
		ID:    "ext-chaos",
		Title: fmt.Sprintf("chaos soak: crash/restart recovery across applications, seed=%d (extension)", cfg.Seed),
	}
	rep.Lines = append(rep.Lines, fmt.Sprintf("%-10s %12s %12s %8s %6s %9s %8s %9s %11s",
		"app", "baseline(s)", "chaos(s)", "crashes", "down%", "restores", "ckpts", "catchup", "maxerr"))

	for i, tgt := range chaosTargets(cfg) {
		fail := func(format string, a ...any) {
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s: %s", tgt.name, fmt.Sprintf(format, a...)))
		}
		base, err := tgt.run(chaosRun{store: checkpoint.NewMemStore(), obs: cfg.Obs})
		if err != nil {
			return rep, fmt.Errorf("%s baseline: %w", tgt.name, err)
		}
		T := core.TotalTime(base)

		// Crashes land in the middle 15–70% of the baseline's span: late
		// enough that there is state worth recovering, early enough that no
		// processor crashes after its peers have already finished (a rejoin
		// request with nobody left to serve it cannot complete).
		sched := faults.Chaos(cfg.Seed+int64(i), tgt.procs, ChaosCrashes,
			0.15*T, 0.70*T, 0.03*T, 0.10*T)
		jr := obs.NewJournal()
		horizon := 6*T + sched.TotalDowntime(-1)
		chaos, err := tgt.run(chaosRun{
			crashes: sched, store: checkpoint.NewMemStore(), journal: jr,
			horizon: horizon, obs: cfg.Obs,
		})
		if err != nil {
			if errors.Is(err, simtime.ErrHorizon) || errors.Is(err, simtime.ErrDeadlock) {
				fail("did not finish within %.0fs of virtual time (recovery stalled): %v", horizon, err)
				continue
			}
			return rep, fmt.Errorf("%s chaos: %w", tgt.name, err)
		}

		// Per-processor Stats only survive a processor's final incarnation, so
		// lifecycle accounting comes from the journal, which sees them all.
		crashes := jr.Count(obs.EvCrash)
		restores := jr.Count(obs.EvRestore)
		catchup := 0
		for _, e := range jr.Events() {
			if e.Kind == obs.EvCatchup {
				catchup += int(e.V)
			}
		}
		agg := core.Aggregate(chaos)
		maxerr := core.MaxAbsErr(flatFinals(chaos), flatFinals(base))
		rep.Lines = append(rep.Lines, fmt.Sprintf("%-10s %12.2f %12.2f %8d %5.1f%% %9d %8d %9d %11.2e",
			tgt.name, T, core.TotalTime(chaos), crashes, 100*agg.DowntimeSec/T,
			restores, jr.Count(obs.EvCheckpoint), catchup, maxerr))

		if crashes < ChaosCrashes {
			fail("only %d crashes injected, want >= %d", crashes, ChaosCrashes)
		}
		if restarts := jr.Count(obs.EvRestart); restarts < crashes {
			fail("%d crashes but only %d restarts", crashes, restarts)
		}
		if restores == 0 {
			fail("no checkpoint restores despite %d crashes", crashes)
		}
		if maxerr > tgt.tol {
			fail("recovered run diverged from fault-free baseline: maxerr %.2e > tol %.2e", maxerr, tgt.tol)
		}
		if s := decaySeries(tgt.name, jr); len(s.X) > 0 {
			rep.Series = append(rep.Series, s)
		}
	}
	if len(rep.Failures) == 0 {
		rep.Lines = append(rep.Lines, "all applications recovered to within tolerance of the fault-free baseline")
	}
	return rep, nil
}

// flatFinals concatenates the per-processor final blocks in processor order.
func flatFinals(results []core.Result) []float64 {
	var out []float64
	for _, r := range results {
		out = append(out, r.Final...)
	}
	return out
}

// decaySeries extracts the post-crash prediction-error decay from a run's
// journal: for every restart of processor p, the unit-bad fractions of the
// validations of p's data that follow it, averaged across crashes by
// position. X is the validation's index after the restart, Y the mean
// unit-bad fraction — a decaying Y is recovery visibly completing.
func decaySeries(name string, jr *obs.Journal) Series {
	type restart struct {
		proc int
		t    float64
	}
	var restarts []restart
	events := jr.Events()
	for _, e := range events {
		if e.Kind == obs.EvRestart {
			restarts = append(restarts, restart{proc: e.Proc, t: e.T})
		}
	}
	const window = 32
	sums := make([]float64, 0, window)
	counts := make([]int, 0, window)
	for _, r := range restarts {
		idx := 0
		for _, e := range events {
			if idx >= window {
				break
			}
			if e.Kind != obs.EvSpecChecked || e.Peer != r.proc || e.T < r.t {
				continue
			}
			if idx >= len(sums) {
				sums = append(sums, 0)
				counts = append(counts, 0)
			}
			sums[idx] += e.V
			counts[idx]++
			idx++
		}
	}
	s := Series{Name: name}
	for i := range sums {
		if counts[i] == 0 {
			continue
		}
		s.X = append(s.X, float64(i))
		s.Y = append(s.Y, sums[i]/float64(counts[i]))
	}
	return s
}
