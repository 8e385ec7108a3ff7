// Command speccoord coordinates one distributed speculative run: it waits
// for the configured number of specnode processes to join, assigns ranks,
// distributes the run configuration, releases the start barrier, and
// collects per-node results (plus checkpoint snapshots when enabled).
//
// Usage:
//
//	speccoord [-addr host:port] [-app heat|jacobi|pipeline] [-procs P] [-iters N]
//	          [-fw W] [-theta θ] [-rows R] [-cols C] [-n N] [-tol T]
//	          [-width W] [-place r0,r1,...] [-exact] [-verify ε]
//	          [-checkpoint K] [-deadline s] [-crash-overrun K]
//	          [-spawn] [-max-respawns R] [-custody-dir DIR]
//	          [-node-timeout d] [-rejoin-wait d] [-http] [-timeout d]
//	          [-fleet host:port] [-job name] [-trace-out file] [-selfcheck] [-hold d]
//
// With -spawn, speccoord launches the P node processes itself on
// 127.0.0.1 (re-executing its own binary in node mode) — a whole
// multi-process run from one command:
//
//	speccoord -spawn -procs 4 -app heat -iters 200
//
// Without -spawn it prints its address and waits for externally started
// specnodes (same machine or remote).
//
// Crash tolerance: with -spawn every node runs under a supervisor — a
// child that dies (kill -9 included) is relaunched with a bumped
// incarnation epoch and capped exponential backoff, reclaims its old rank
// from the coordinator, restores from checkpoint custody, and rejoins the
// mesh; -max-respawns bounds the budget. Child stdout/stderr is prefixed
// with "[node N]" and a child that ultimately fails makes speccoord itself
// exit non-zero. -custody-dir makes checkpoint custody durable: per-rank
// blobs are persisted there (atomic replace, CRC-sealed), and a restarted
// speccoord on the same directory resumes the previous incarnation's
// custody instead of losing the run's checkpoints. -node-timeout vacates a
// node whose control connection goes silent; -rejoin-wait bounds how long
// a vacated rank may stay unclaimed before the run fails.
//
// The fleet plane: -fleet serves ONE aggregated Prometheus endpoint for the
// whole run (every node's series re-labelled with job/node) plus a /fleet
// JSON status view; nodes push snapshots to the coordinator over their
// existing control connection, so there is a single scrape target no matter
// how many processes the run spans. -trace-out merges the per-node run
// journals into one time-aligned Chrome/Perfetto trace in which a
// speculation's predict/send/deliver/check spans from different OS
// processes appear as one linked flow.
//
// Service mode: -serve runs a long-lived multi-run scheduler instead of a
// single coordinator — jobs are submitted over HTTP (cmd/specsubmit),
// queued by priority, sharded across a -pool of ranks, quota-limited per
// tenant, and preemptible to checkpoint custody. SIGTERM drains to the
// -custody-dir / -state-dir so a restarted service resumes the queue:
//
//	speccoord -serve -pool 8 -custody-dir /var/lib/specomp/custody \
//	          -state-dir /var/lib/specomp/state -max-tenant-ranks 6
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"specomp/internal/checkpoint"
	"specomp/internal/distnet"
	"specomp/internal/obs"
	"specomp/internal/sched"
	"specomp/internal/trace"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:0", "coordinator listen address")
		app       = flag.String("app", "heat", "application: heat, jacobi or pipeline")
		procs     = flag.Int("procs", 4, "number of node processes")
		iters     = flag.Int("iters", 200, "maximum iterations")
		fw        = flag.Int("fw", 2, "forward speculation window")
		bw        = flag.Int("bw", 0, "backward window (0 = predictor default)")
		theta     = flag.Float64("theta", 1e-3, "speculation acceptance threshold θ")
		rows      = flag.Int("rows", 48, "heat grid rows")
		cols      = flag.Int("cols", 32, "heat grid columns")
		n         = flag.Int("n", 64, "jacobi system size")
		tol       = flag.Float64("tol", 0, "jacobi convergence tolerance (0 = run all iterations)")
		seed      = flag.Int64("seed", 1, "problem seed (jacobi, pipeline)")
		width     = flag.Int("width", 16, "pipeline per-stage row width")
		place     = flag.String("place", "", "pipeline stage placement: comma-separated rank per stage (default identity)")
		exact     = flag.Bool("exact", false, "pipeline: zero every stage tolerance (an FW=1 run is then bit-identical to serial)")
		verify    = flag.Float64("verify", -1, "pipeline: after the run, compare finals against the serial reference within this envelope (negative = off)")
		ckpt      = flag.Int("checkpoint", 0, "checkpoint every K iterations (0 = off)")
		deadline  = flag.Float64("deadline", 0, "per-iteration wall-clock deadline in seconds (0 = off; enables graceful degradation and crash bridging)")
		crashOver = flag.Int("crash-overrun", 0, "extra speculative iterations past a dead peer (0 = engine default)")
		spawn     = flag.Bool("spawn", false, "launch the node processes locally, each under a supervisor")
		respawns  = flag.Int("max-respawns", 3, "how many times a crashed spawned node is relaunched before giving up")
		custody   = flag.String("custody-dir", "", "persist checkpoint custody here (atomic per-rank files); a restarted coordinator resumes it")
		nodeTO    = flag.Duration("node-timeout", 10*time.Second, "vacate a node whose control connection is silent this long (negative = off)")
		rejoinW   = flag.Duration("rejoin-wait", 30*time.Second, "fail the run if a vacated rank stays unclaimed this long")
		http      = flag.Bool("http", false, "spawned nodes serve /metrics and /journal on ephemeral ports")
		timeout   = flag.Duration("timeout", 5*time.Minute, "overall run timeout")
		jsonOut   = flag.Bool("json", false, "print the reports as JSON instead of a table")
		fleetAddr = flag.String("fleet", "127.0.0.1:0", "aggregated fleet /metrics + /fleet listen address (empty = off)")
		job       = flag.String("job", "", "job label on aggregated fleet metrics (default: the app name)")
		traceOut  = flag.String("trace-out", "", "write the merged cross-process speculation trace (Chrome JSON) here")
		selfcheck = flag.Bool("selfcheck", false, "after the run, validate the aggregated exposition (all ranks present, no duplicate series)")
		obsPush   = flag.Int("obs-push-ms", 0, "metrics push period in ms (0 = 500ms default, negative = off)")
		hold      = flag.Duration("hold", 0, "keep the fleet endpoint up this long after the run (for scraping)")

		// Service mode: a long-running multi-run scheduler (sched.Serve).
		serve        = flag.Bool("serve", false, "run as a multi-run scheduler service instead of one coordinator")
		serveAddr    = flag.String("serve-addr", "127.0.0.1:0", "scheduler HTTP listen address (with -serve)")
		pool         = flag.Int("pool", 8, "scheduler node-pool capacity in ranks (with -serve)")
		stateDir     = flag.String("state-dir", "", "persist the scheduler's pending queue here across restarts (with -serve)")
		tenantJobs   = flag.Int("max-tenant-jobs", 0, "per-tenant active job quota, 0 = unlimited (with -serve)")
		tenantRanks  = flag.Int("max-tenant-ranks", 0, "per-tenant active rank quota, 0 = unlimited (with -serve)")
		evictGrace   = flag.Duration("evict-grace", 10*time.Second, "how long a preemption waits for full custody coverage (with -serve)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for running jobs to evict (with -serve)")

		// Node mode, used by -spawn to re-execute this binary as a specnode.
		join  = flag.String("join", "", "internal: run as a node against this coordinator")
		epoch = flag.Int("epoch", 0, "internal: incarnation epoch of this node process")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "speccoord ", log.Ltime|log.Lmicroseconds)

	if *join != "" {
		httpAddr := ""
		if *http {
			httpAddr = "127.0.0.1:0"
		}
		res, err := distnet.RunNode(distnet.NodeConfig{
			Coord: *join, HTTPAddr: httpAddr, Epoch: *epoch, Logf: logger.Printf,
		})
		if err != nil {
			logger.Fatalf("node: %v", err)
		}
		logger.Printf("node rank %d (epoch %d) finished after %v", res.Rank, *epoch, res.Wall)
		return
	}

	// nodeCmd re-executes this binary in node mode, its output on out: the
	// child of one slot of a -spawn run or of one scheduler job.
	self, err := os.Executable()
	if err != nil {
		self = os.Args[0]
	}
	nodeCmd := func(coord string, epoch int, out io.Writer) (*exec.Cmd, error) {
		args := []string{"-join", coord, "-epoch", strconv.Itoa(epoch)}
		if *http {
			args = append(args, "-http")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = out, out
		return cmd, nil
	}

	// Durable custody: checkpoint blobs survive the coordinator process.
	var store *checkpoint.FileStore
	if *custody != "" {
		if store, err = checkpoint.NewFileStore(*custody); err != nil {
			logger.Fatalf("%v", err)
		}
	}

	if *serve {
		cfg := sched.Config{
			TotalRanks: *pool, StateDir: *stateDir,
			MaxJobsPerTenant: *tenantJobs, MaxRanksPerTenant: *tenantRanks,
			MaxRespawns: *respawns, RunTimeout: *timeout, EvictGrace: *evictGrace,
			NodeTimeout: *nodeTO, RejoinWait: *rejoinW, Logf: logger.Printf, Custody: store,
			Launch: func(info sched.LaunchInfo) (*exec.Cmd, error) {
				return nodeCmd(info.Coord, info.Epoch, os.Stderr)
			},
		}
		ln, err := net.Listen("tcp", *serveAddr)
		if err != nil {
			logger.Fatalf("scheduler listener: %v", err)
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		logger.Printf("scheduler listening on http://%s (pool %d ranks)", ln.Addr(), *pool)
		if err := sched.Serve(ctx, ln, cfg, *drainTimeout); err != nil {
			logger.Fatalf("%v", err)
		}
		logger.Printf("drained; custody and queue are on disk")
		return
	}

	spec := distnet.RunSpec{
		App: *app, Procs: *procs, MaxIter: *iters, FW: *fw, BW: *bw,
		Theta: *theta, Rows: *rows, Cols: *cols, N: *n, Tol: *tol,
		Width: *width, Exact: *exact,
		Seed: *seed, CheckpointEvery: *ckpt,
		Deadline: *deadline, MaxCrashOverrun: *crashOver,
		Job:       *job,
		ObsPushMS: *obsPush,
		Trace:     *traceOut != "",
	}
	if *place != "" {
		for _, part := range strings.Split(*place, ",") {
			r, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				logger.Fatalf("-place: %v", err)
			}
			spec.Placement = append(spec.Placement, r)
		}
	}
	if err := spec.Normalize(); err != nil {
		logger.Fatalf("%v", err)
	}

	// The fleet metrics plane: one aggregated endpoint for the whole run.
	var fleet *distnet.FleetObs
	if *fleetAddr != "" || *selfcheck {
		fleet = distnet.NewFleetObs(*job)
	}
	if fleet != nil && *fleetAddr != "" {
		srv, err := obs.Listen(*fleetAddr, fleet.Handler())
		if err != nil {
			logger.Fatalf("fleet listener: %v", err)
		}
		defer srv.Close()
		fmt.Printf("fleet metrics on http://%s/metrics (status: /fleet)\n", srv.Addr())
	}

	cfg := distnet.CoordConfig{
		Addr: *addr, Spec: spec, Timeout: *timeout, Fleet: fleet,
		NodeTimeout: *nodeTO, RejoinWait: *rejoinW, Logf: logger.Printf,
	}
	if store != nil {
		cfg.Custody = store
	}

	// With -spawn every node slot runs under a supervisor (distnet.StartLocal):
	// a child that dies is relaunched with a bumped epoch (the rejoin
	// credential) until the respawn budget runs out; its output is
	// line-prefixed so the interleaved fleet stays readable. Without it the
	// nodes are someone else's to start.
	var (
		coord    *distnet.Coordinator
		prefixes []*distnet.PrefixWriter
		wait     = func() ([]distnet.NodeReport, error, error) { r, err := coord.Wait(); return r, err, nil }
	)
	if *spawn {
		prefixes = make([]*distnet.PrefixWriter, spec.Procs)
		for i := range prefixes {
			prefixes[i] = distnet.NewPrefixWriter(os.Stderr, fmt.Sprintf("[node %d] ", i))
		}
		local, err := distnet.StartLocal(cfg, distnet.SuperviseConfig{MaxRespawns: *respawns, Logf: logger.Printf},
			func(coord string, slot, epoch int) (*exec.Cmd, error) {
				return nodeCmd(coord, epoch, prefixes[slot])
			})
		if err != nil {
			logger.Fatalf("%v", err)
		}
		coord, wait = local.Coordinator(), local.Wait
		logger.Printf("spawned %d supervised local node processes (respawn budget %d each)", spec.Procs, *respawns)
	} else if coord, err = distnet.NewCoordinator(cfg); err != nil {
		logger.Fatalf("%v", err)
	}
	fmt.Printf("coordinator listening on %s (waiting for %d nodes)\n", coord.Addr(), spec.Procs)

	// A child outcome that is not a clean exit — a launch failure or a node
	// that kept dying past its budget — is this process's failure too, even
	// when the run itself succeeded.
	reports, err, childErr := wait()
	for _, pw := range prefixes {
		_ = pw.Flush()
	}
	if childErr != nil {
		logger.Printf("node supervision: %v", childErr)
	}
	if err != nil {
		logger.Fatalf("%v", err)
	}
	if st := coord.Stats(); st.Vacated > 0 || st.CustodyRestores > 0 {
		logger.Printf("crash tolerance: %d vacated, %d rejoined, %d checkpoints accepted (%d written to custody), %d custody restores",
			st.Vacated, st.Rejoins, st.CustodySaves, st.CustodyCommits, st.CustodyRestores)
	}
	if store != nil {
		if werr := store.Err(); werr != nil {
			logger.Printf("warning: custody writes degraded: %v", werr)
		}
		// The run completed: its custody has served its purpose, and leaving
		// final-iteration checkpoints behind would poison the next run
		// started on this directory.
		if werr := store.Clear(); werr != nil {
			logger.Printf("warning: %v", werr)
		} else {
			logger.Printf("custody cleared (run complete)")
		}
	}

	if *selfcheck {
		if err := fleet.SelfCheck(spec.Procs); err != nil {
			logger.Fatalf("fleet selfcheck: %v", err)
		}
		logger.Printf("fleet selfcheck passed: %d ranks aggregated, no duplicate series", spec.Procs)
	}
	if *verify >= 0 {
		if err := distnet.VerifyPipeline(spec, reports, *verify); err != nil {
			logger.Fatalf("verify: %v", err)
		}
		logger.Printf("verify passed: all %d stages within %g of the serial reference", spec.Procs, *verify)
	}
	if *traceOut != "" {
		journals := distnet.FleetJournals(reports)
		if len(journals) < spec.Procs {
			logger.Fatalf("trace merge: only %d/%d nodes shipped a journal", len(journals), spec.Procs)
		}
		var buf bytes.Buffer
		if err = trace.WriteFleetTrace(&buf, journals); err == nil {
			err = os.WriteFile(*traceOut, buf.Bytes(), 0o644)
		}
		if err != nil {
			logger.Fatalf("trace-out: %v", err)
		}
		logger.Printf("wrote merged trace of %d processes to %s (load in ui.perfetto.dev)", len(journals), *traceOut)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			logger.Fatalf("%v", err)
		}
	} else {
		fmt.Printf("%-4s %-21s %-9s %5s %6s %6s %5s %10s %7s %8s %9s %10s\n",
			"rank", "addr", "converged", "epoch", "iters", "specs", "bad", "superseded", "repairs", "wall", "msgs", "bytes")
		for _, r := range reports {
			fmt.Printf("%-4d %-21s %-9v %5d %6d %6d %5d %10d %7d %7.3fs %9d %10d\n",
				r.Rank, r.Addr, r.Converged, r.Epoch, r.Iters, r.SpecsMade, r.SpecsBad, r.SpecsSuperseded,
				r.Repairs, r.WallSec, r.MsgsSent, r.BytesSent)
			if r.Epoch > 0 {
				fmt.Printf("     └─ respawned incarnation: %d checkpoint restore(s) from custody\n", r.Restores)
			}
			if r.HTTP != "" {
				fmt.Printf("     └─ served http://%s/metrics and /journal during the run\n", r.HTTP)
			}
		}
	}

	if *hold > 0 && fleet != nil && *fleetAddr != "" {
		logger.Printf("holding the fleet endpoint open for %v", *hold)
		time.Sleep(*hold)
	}
	if childErr != nil {
		os.Exit(1)
	}
}
