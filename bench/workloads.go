package main

import (
	"time"

	"specomp/internal/distnet"
	"specomp/internal/nbody"
)

// substrate says which public entry point a workload's unit goes through.
type substrate int

const (
	onDistnet  substrate = iota // distnet.NewCoordinator + RunNode in-process over loopback TCP
	onRealtime                  // realtime.Run, goroutine transport
	onSched                     // sched.Scheduler with re-exec'd child node processes
)

// workload is one set of inputs. P is fixed per workload and does not scale
// with the machine; the load comes from the one bench process.
type workload struct {
	name string
	why  string
	on   substrate
	// spec is the distnet run (also the job body on svc-jobs). On the
	// realtime workload only Procs, MaxIter, FW and Theta are read.
	spec distnet.RunSpec
	// latency is the fixed one-way delay injected per message
	// (NodeConfig.Faults = netmodel.Fixed, or realtime.Config.Delay).
	latency time.Duration
	// nbodyN and nbodyDt size the N-body case study (realtime workload).
	nbodyN  int
	nbodyDt float64
	// warmup is the number of discarded units before measuring.
	warmup int
}

// workloads returns the six workloads; short shrinks them to toy size for
// the smoke test while keeping every code path.
func workloads(short bool) []workload {
	pick := func(full, toy int) int {
		if short {
			return toy
		}
		return full
	}
	latHeat := distnet.RunSpec{App: "heat", Procs: 4, Rows: 48, Cols: 32, MaxIter: pick(500, 30), Theta: 1e-3}
	latSpec := latHeat
	latSpec.FW = 2
	return []workload{
		{
			name: "lat-block", on: onDistnet, spec: latHeat, latency: 2 * time.Millisecond, warmup: 1,
			why: "blocking baseline (FW=0) under 2 ms injected latency: every iteration pays L; bypasses speculation, shares every other byte with lat-spec",
		},
		{
			name: "lat-spec", on: onDistnet, spec: latSpec, latency: 2 * time.Millisecond, warmup: 1,
			why: "the paper's claim on sockets: FW=2 under the same 2 ms latency, all speculations accepted, messages on the held-back single-frame path",
		},
		{
			name: "wire-a2a", on: onDistnet, warmup: 1,
			spec: distnet.RunSpec{App: "jacobi", Procs: 4, N: 64, MaxIter: pick(10000, 300)},
			why:  "jacobi all-to-all with no latency and a tiny kernel: mailbox, batcher, codec and link goroutines are the whole run",
		},
		{
			name: "kernel-heat", on: onDistnet, warmup: 1,
			spec: distnet.RunSpec{App: "heat", Procs: 2, Rows: pick(1024, 128), Cols: pick(512, 64), MaxIter: pick(500, 30)},
			why:  "large heat grid on 2 ranks, no latency: the app kernel and its allocations dominate, messages are 4 KB edge rows",
		},
		{
			name: "nbody-misspec", on: onRealtime, latency: 2 * time.Millisecond, warmup: 1,
			spec:   distnet.RunSpec{Procs: 2, MaxIter: pick(400, 30), FW: 2, Theta: 1e-4},
			nbodyN: pick(512, 64), nbodyDt: 0.002,
			why: "N-body case study on the goroutine transport with theta so tight every speculation is rejected: pays for over-eager speculation, repair and cascade",
		},
		{
			name: "svc-jobs", on: onSched, warmup: pick(3, 1),
			spec: distnet.RunSpec{App: "heat", Procs: 2, Rows: 48, Cols: 32, MaxIter: pick(200, 30), FW: 2, Theta: 1e-3},
			why:  "scheduler service path, closed loop with 1 client and real child processes: submit, spawn, join, custody writes, result; almost no iteration work",
		},
	}
}

// messageLen is the length of the vectors the workload's ranks exchange —
// the shape the codec, predictor and engine micro-blocks run at.
func (w workload) messageLen() int {
	switch {
	case w.on == onRealtime:
		return nbody.Floats * w.nbodyN / w.spec.Procs
	case w.spec.App == "jacobi":
		return w.spec.N / w.spec.Procs
	default:
		return 2 * w.spec.Cols // heat publishes its two edge rows
	}
}
