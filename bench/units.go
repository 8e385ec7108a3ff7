package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"specomp/internal/core"
	"specomp/internal/distnet"
	"specomp/internal/netmodel"
	"specomp/internal/obs"
	"specomp/internal/realtime"
)

// unitTimeout turns a hung unit into a counted failure instead of a stuck
// benchmark. The slowest unit takes about 2 s.
const unitTimeout = 60 * time.Second

// rankStats is one rank's outcome of one unit, from what the program itself
// returns (core.Stats where the node ran in-process, NodeReport otherwise).
type rankStats struct {
	iters          int
	specsMade      int
	specsChecked   int
	specsBad       int
	repairs        int
	cascades       int
	runSec         float64 // iteration 0 to the engine's return
	blockedSec     float64 // receive-blocked time
	msgsSent       int
	msgsRecvd      int
	frames         int
	bytes          int
	latP50, latP99 float64 // delivery latency, seconds
	journal        []obs.Event
}

// rankFromReport reads what a NodeReport carries. It has no checked or cascade
// counts: every speculation made is checked by the end of a completed run, and
// callers with the engine's own statistics at hand overwrite both.
func rankFromReport(rep distnet.NodeReport) rankStats {
	return rankStats{
		iters: rep.Iters, specsMade: rep.SpecsMade, specsChecked: rep.SpecsMade, specsBad: rep.SpecsBad,
		repairs: rep.Repairs, runSec: rep.WallSec, blockedSec: rep.CommSec,
		msgsSent: rep.MsgsSent, msgsRecvd: rep.MsgsRecvd, frames: rep.FramesSent, bytes: rep.BytesSent,
		latP50: rep.LatP50Sec, latP99: rep.LatP99Sec, journal: rep.Journal,
	}
}

// unit is one fleet run or one job: the thing whose wall time is tts_s.
type unit struct {
	id        int
	start     time.Time
	wall      float64 // window: just before NewCoordinator/Run/Submit to solution in hand
	setup     float64 // wall minus the slowest rank's run time
	allocMB   float64 // bench-process TotalAlloc over the window
	mallocs   float64 // bench-process Mallocs over the window
	gcCycles  float64
	gcPauseMS float64
	cpuSec    float64 // getrusage self+children over the window
	ranks     []rankStats
	solErr    float64 // deviation from the serial reference
	err       error   // non-nil: the unit failed (error, timeout, wrong count, out of tolerance)
	// hung is set when the unit timed out with goroutines still inside the
	// program; the process is no longer a clean place to measure.
	hung bool
	// fleet is the aggregated metrics plane of a traced distnet unit.
	fleet *distnet.FleetObs
	// job holds the scheduler's view of an svc-jobs unit.
	job *jobTimes
}

// window measures the bench process around one unit's timing window. The
// MemStats reads stop the world, so they sit outside the timed interval.
type window struct {
	ms    runtime.MemStats
	cpu   float64
	start time.Time
}

func openWindow() window {
	var w window
	runtime.ReadMemStats(&w.ms)
	w.cpu = cpuSeconds()
	w.start = time.Now()
	return w
}

func (w window) close(u *unit) {
	u.start = w.start
	u.wall = time.Since(w.start).Seconds()
	u.cpuSec = cpuSeconds() - w.cpu
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	u.allocMB = float64(after.TotalAlloc-w.ms.TotalAlloc) / 1e6
	u.mallocs = float64(after.Mallocs - w.ms.Mallocs)
	u.gcCycles = float64(after.NumGC - w.ms.NumGC)
	u.gcPauseMS = float64(after.PauseTotalNs-w.ms.PauseTotalNs) / 1e6
}

// slowestRun is the longest per-rank run time of the unit.
func (u *unit) slowestRun() float64 {
	worst := 0.0
	for _, r := range u.ranks {
		if r.runSec > worst {
			worst = r.runSec
		}
	}
	return worst
}

// runFleet runs one distnet unit: a coordinator and spec.Procs nodes, all in
// this process, meshed over 127.0.0.1 TCP. traced turns on RunSpec.Trace and
// a FleetObs; untraced units push no metrics and ship no journals.
func runFleet(w workload, spec distnet.RunSpec, seed int64, traced bool, ref *reference, sp *spanRec, id int) unit {
	u := unit{id: id}
	spec.Seed = seed
	spec.Trace = traced
	if traced {
		u.fleet = distnet.NewFleetObs(w.name)
	} else {
		spec.ObsPushMS = -1
	}
	var faultModel netmodel.Model
	if w.latency > 0 {
		faultModel = netmodel.Fixed{D: w.latency.Seconds()}
	}
	root := sp.begin("unit", -1, id)
	defer sp.end(root)

	win := openWindow()
	s := sp.begin("coord.new", root, id)
	coord, err := distnet.NewCoordinator(distnet.CoordConfig{Spec: spec, Timeout: unitTimeout, Fleet: u.fleet})
	sp.end(s)
	if err != nil {
		u.err = err
		return u
	}
	spec = coord.Spec()

	s = sp.begin("fleet.run", root, id)
	results := make([]*distnet.NodeResult, spec.Procs)
	nodeErrs := make([]error, spec.Procs)
	var wg sync.WaitGroup
	for rank := 0; rank < spec.Procs; rank++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			results[slot], nodeErrs[slot] = distnet.RunNode(distnet.NodeConfig{
				Coord: coord.Addr(), Faults: faultModel, FaultSeed: seed + int64(slot),
			})
		}(rank)
	}
	reports, err := coord.Wait()
	win.close(&u)
	sp.end(s)

	// Every node goroutine is joined before the next unit starts. Nodes
	// return once the coordinator's shutdown (or its death) reaches them.
	s = sp.begin("fleet.teardown", root, id)
	coord.Close()
	joined := make(chan struct{})
	go func() { wg.Wait(); close(joined) }()
	select {
	case <-joined:
	case <-time.After(unitTimeout):
		u.hung = true
	}
	sp.end(s)
	if err != nil {
		u.err = err
		return u
	}
	for slot, nerr := range nodeErrs {
		if nerr != nil {
			u.err = fmt.Errorf("node %d: %w", slot, nerr)
			return u
		}
	}

	// Reports are rank-ordered; in-process results are slot-ordered and carry
	// the engine's full statistics, so index them by rank.
	byRank := make([]*distnet.NodeResult, spec.Procs)
	for _, r := range results {
		byRank[r.Rank] = r
	}
	for _, rep := range reports {
		r := rankFromReport(rep)
		st := byRank[rep.Rank].Result.Stats
		r.specsChecked, r.cascades = st.SpecsChecked, st.CascadeRedos
		u.ranks = append(u.ranks, r)
	}
	u.setup = u.wall - u.slowestRun()

	s = sp.begin("verify", root, id)
	u.solErr, u.err = ref.checkFleet(spec, reports)
	sp.end(s)
	return u
}

// runRealtime runs one unit on realtime.Run with the injected per-message
// delay. The apps are built inside the window but before Run, so app
// construction counts as set-up here as it does on distnet.
func runRealtime(w workload, cfg realtime.Config, seed int64, sp *spanRec, id int, spanName string) (unit, []realtime.Result) {
	u := unit{id: id}
	root := sp.begin(spanName, -1, id)
	defer sp.end(root)

	type outcome struct {
		results []realtime.Result
		err     error
	}
	done := make(chan outcome, 1)
	win := openWindow()
	go func() {
		apps, err := buildApps(w, seed)
		if err != nil {
			done <- outcome{nil, err}
			return
		}
		res, err := realtime.Run(cfg, func(pid, _ int) core.App { return apps[pid] })
		done <- outcome{res, err}
	}()
	var out outcome
	select {
	case out = <-done:
	case <-time.After(unitTimeout):
		u.hung = true
		out.err = fmt.Errorf("realtime run still going after %v", unitTimeout)
	}
	win.close(&u)
	if out.err != nil {
		u.err = out.err
		return u, nil
	}
	for _, r := range out.results {
		u.ranks = append(u.ranks, rankStats{
			iters: r.Stats.Iters, specsMade: r.Stats.SpecsMade, specsChecked: r.Stats.SpecsChecked,
			specsBad: r.Stats.SpecsBad, repairs: r.Stats.Repairs, cascades: r.Stats.CascadeRedos,
			runSec: r.Elapsed.Seconds(), blockedSec: r.CommBlocked.Seconds(),
		})
	}
	u.setup = u.wall - u.slowestRun()
	if cfg.Journal != nil {
		// One shared journal; split it per rank for the iteration-gap view.
		for _, e := range cfg.Journal.Events() {
			if e.Proc >= 0 && e.Proc < len(u.ranks) {
				u.ranks[e.Proc].journal = append(u.ranks[e.Proc].journal, e)
			}
		}
	}
	return u, out.results
}

// runNBody runs one nbody-misspec unit: the paper's N-body case study on the
// goroutine transport. Initial conditions come from the seed.
func runNBody(w workload, fw int, seed int64, traced bool, ref *reference, sp *spanRec, id int) unit {
	cfg := realtime.Config{Procs: w.spec.Procs, MaxIter: w.spec.MaxIter, FW: fw, Delay: w.latency}
	if traced {
		cfg.Metrics = obs.NewRegistry()
		cfg.Journal = obs.NewJournal()
	}
	u, results := runRealtime(w, cfg, seed, sp, id, "unit")
	if u.err != nil {
		return u
	}
	s := sp.begin("verify", -1, id)
	u.solErr, u.err = ref.checkNBody(w, results)
	sp.end(s)
	return u
}

// runTwin runs a distnet workload's spec on realtime.Run with Delay equal to
// the injected latency — the same engine and app without sockets, whose tts
// is the denominator of distnet.socket_tax.
func runTwin(w workload, seed int64, sp *spanRec, id int) unit {
	spec := w.spec
	if err := spec.Normalize(); err != nil {
		return unit{id: id, err: err}
	}
	cfg := realtime.Config{Procs: spec.Procs, MaxIter: spec.MaxIter, FW: spec.FW, Delay: w.latency}
	u, _ := runRealtime(w, cfg, seed, sp, id, "twin.realtime")
	return u
}

func evenCounts(n, p int) []int {
	counts := make([]int, p)
	for i := range counts {
		counts[i] = n / p
	}
	counts[p-1] += n % p
	return counts
}
