package main

// Timed blocks: each calls one layer's public functions directly, at the
// workload's own shapes (row length, P, FW, latency), so a layer's cost can
// be set against its share of the end-to-end time.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"specomp/internal/checkpoint"
	"specomp/internal/cluster"
	"specomp/internal/core"
	"specomp/internal/distnet"
	"specomp/internal/faults"
	"specomp/internal/nbody"
	"specomp/internal/netmodel"
	"specomp/internal/predict"
)

// blockBudget is how long one timed block samples at full size.
const blockBudget = 120 * time.Millisecond

// perOp times fn in batches for about budget and returns the median batch's
// seconds per call. Batches are sized to last at least a millisecond so the
// clock reads are negligible.
func perOp(budget time.Duration, fn func()) float64 {
	batch := 1
	for {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		if time.Since(t0) >= time.Millisecond || batch >= 1<<20 {
			break
		}
		batch *= 4
	}
	var samples []float64
	deadline := time.Now().Add(budget)
	for len(samples) < 5 || time.Now().Before(deadline) {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		samples = append(samples, time.Since(t0).Seconds()/float64(batch))
	}
	return median(samples)
}

// allocsPerOp returns the mallocs and bytes one call of fn costs, averaged
// over n calls.
func allocsPerOp(n int, fn func()) (mallocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// layerTimes are the timed blocks' results, in seconds unless named
// otherwise.
type layerTimes struct {
	compute, check                 float64
	computeAllocs, computeBytes    float64
	engineIter, engineAllocs       float64
	predict                        float64
	encode, decode, batchEncode    float64 // per message
	rtt                            float64
	plan                           float64
	snapshotBytes                  float64
	ckptEncode, ckptSave, ckptLoad float64
}

// layerBench runs the timed blocks of one workload; budget is how long one
// block samples.
type layerBench struct {
	w       workload
	seed    int64
	tmpRoot string
	budget  time.Duration
	lt      layerTimes
}

// timeLayers runs every timed block for w, each under its own span.
func timeLayers(w workload, seed int64, tmpRoot string, budget time.Duration, sp *spanRec) (layerTimes, error) {
	b := &layerBench{w: w, seed: seed, tmpRoot: tmpRoot, budget: budget}
	blocks := []struct {
		name string
		run  func() error
	}{
		{"layer.apps", b.timeApp},
		{"layer.core", b.timeEngine},
		{"layer.predict", b.timePredict},
		{"layer.distnet.codec", b.timeCodec},
		{"layer.distnet.rtt", b.timeRTT},
		{"layer.faults", b.timePlan},
		{"layer.checkpoint", b.timeCheckpoint},
	}
	for _, blk := range blocks {
		s := sp.begin(blk.name, -1, -1)
		err := blk.run()
		sp.end(s)
		if err != nil {
			return b.lt, fmt.Errorf("%s: %w", blk.name, err)
		}
	}
	return b.lt, nil
}

// buildApps constructs every rank's application exactly as a unit does.
func buildApps(w workload, seed int64) ([]core.App, error) {
	apps := make([]core.App, w.spec.Procs)
	if w.on == onRealtime {
		sim := nbody.DefaultSim()
		sim.Dt = w.nbodyDt
		parts := nbody.SplitParticles(nbody.UniformSphere(w.nbodyN, seed), evenCounts(w.nbodyN, w.spec.Procs))
		for pid := range apps {
			apps[pid] = nbody.NewApp(sim, parts[pid], w.nbodyN, pid, w.spec.Theta, nil)
		}
		return apps, nil
	}
	spec := w.spec
	spec.Seed = seed
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	for pid := range apps {
		app, err := distnet.BuildApp(spec, pid)
		if err != nil {
			return nil, err
		}
		apps[pid] = app
	}
	return apps, nil
}

// iterationZeroView is the view rank r computes on at iteration 0: its own
// partition in full, every peer's in the form the peer would broadcast.
func iterationZeroView(apps []core.App, r int) [][]float64 {
	view := make([][]float64, len(apps))
	for k, app := range apps {
		view[k] = app.InitLocal()
		if pub, ok := app.(core.Publisher); ok && k != r {
			view[k] = pub.Publish(view[k])
		}
	}
	return view
}

// timeApp times rank 0's Compute and Check while the other ranks' kernels run
// alongside, as they do in a unit: all P ranks live in one process and share
// its cores, caches and memory bandwidth, and a kernel timed alone on a quiet
// process understates what a rank pays.
func (b *layerBench) timeApp() error {
	apps, err := buildApps(b.w, b.seed)
	if err != nil {
		return err
	}
	views := make([][][]float64, len(apps))
	for r := range apps {
		views[r] = iterationZeroView(apps, r)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 1; r < len(apps); r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = apps[r].Compute(views[r], 0)
				}
			}
		}(r)
	}
	compute := func() { _ = apps[0].Compute(views[0], 0) }
	b.lt.compute = perOp(b.budget, compute)
	close(stop)
	wg.Wait()
	// Process-wide counters: only with the other ranks stopped.
	b.lt.computeAllocs, b.lt.computeBytes = allocsPerOp(8, compute)
	view := views[0]
	b.lt.check = perOp(b.budget/4, func() { _ = apps[0].Check(1, view[1], view[1], view[0], 0) })
	return nil
}

// memTransport is the bench-owned zero-latency in-memory transport for the
// engine block: rank 0 of p, whose peers' messages are synthesized on demand
// (one iteration level at a time, round-robin) from rotating buffers holding
// an exactly linear trajectory, so the default predictor is always right and
// the engine stays on its steady-state path.
type memTransport struct {
	p, depth, cursor int
	bufs             [][][]float64
	rot              []int
}

func newMemTransport(p, rowLen int) *memTransport {
	t := &memTransport{p: p, rot: make([]int, p)}
	t.bufs = make([][][]float64, p)
	for k := 1; k < p; k++ {
		t.bufs[k] = make([][]float64, 16)
		for i := range t.bufs[k] {
			t.bufs[k][i] = make([]float64, rowLen)
		}
	}
	return t
}

func trajectory(peer, iter, j int) float64 {
	return float64(peer+1) + 0.001*float64(iter) + 0.0001*float64(j)
}

func (t *memTransport) ID() int                                  { return 0 }
func (t *memTransport) P() int                                   { return t.p }
func (t *memTransport) Now() float64                             { return 0 }
func (t *memTransport) Compute(float64, cluster.Phase)           {}
func (t *memTransport) Send(dst, tag, iter int, d []float64)     {}
func (t *memTransport) PhaseTime(cluster.Phase) float64          { return 0 }
func (t *memTransport) TryRecv(int, int) (cluster.Message, bool) { return cluster.Message{}, false }

func (t *memTransport) Recv(int, int) cluster.Message {
	peer := 1 + t.cursor
	buf := t.bufs[peer][t.rot[peer]]
	t.rot[peer] = (t.rot[peer] + 1) % len(t.bufs[peer])
	for j := range buf {
		buf[j] = trajectory(peer, t.depth, j)
	}
	m := cluster.Message{Src: peer, Tag: core.DataTag, Iter: t.depth, Data: buf}
	if t.cursor++; t.cursor == t.p-1 {
		t.cursor, t.depth = 0, t.depth+1
	}
	return m
}

// meanApp is the trivial application of the engine block: the element-wise
// mean of the view, written into a reused buffer.
type meanApp struct{ out []float64 }

func (a *meanApp) InitLocal() []float64 {
	init := make([]float64, len(a.out))
	for j := range init {
		init[j] = trajectory(0, 0, j)
	}
	return init
}

func (a *meanApp) Compute(view [][]float64, t int) []float64 {
	inv := 1 / float64(len(view))
	for j := range a.out {
		s := 0.0
		for _, row := range view {
			s += row[j]
		}
		a.out[j] = s * inv
	}
	return a.out
}

func (a *meanApp) ComputeOps() float64 { return 1 }

func (a *meanApp) Check(peer int, pred, act, local []float64, t int) core.CheckResult {
	return core.RelErrCheck(0.05, 1, pred, act)
}

func (a *meanApp) RepairOps(core.CheckResult) float64 { return 1 }

// timeEngine times one engine iteration (broadcast, assemble or speculate,
// compute, validate, retire) at the workload's row length, P and FW.
func (b *layerBench) timeEngine() error {
	const iters = 4000
	rowLen, p, fw := b.w.messageLen(), b.w.spec.Procs, b.w.spec.FW
	var runErr error
	run := func() {
		_, err := core.Run(newMemTransport(p, rowLen), &meanApp{out: make([]float64, rowLen)}, core.Config{FW: fw, MaxIter: iters})
		if err != nil {
			runErr = err
		}
	}
	var samples []float64
	deadline := time.Now().Add(b.budget)
	for len(samples) < 3 || time.Now().Before(deadline) {
		t0 := time.Now()
		run()
		samples = append(samples, time.Since(t0).Seconds()/iters)
	}
	b.lt.engineIter = median(samples)
	mallocs, _ := allocsPerOp(1, run)
	b.lt.engineAllocs = mallocs / iters
	return runErr
}

func (b *layerBench) timePredict() error {
	n := b.w.messageLen()
	hist := [][]float64{make([]float64, n), make([]float64, n)}
	for j := 0; j < n; j++ {
		hist[0][j], hist[1][j] = trajectory(1, 1, j), trajectory(1, 0, j)
	}
	dst := make([]float64, n)
	b.lt.predict = perOp(b.budget/4, func() { dst = predict.Linear{}.PredictInto(dst, hist, 1) })
	return nil
}

// benchMessage is a data message of the workload's row length.
func benchMessage(w workload, iter int) cluster.Message {
	data := make([]float64, w.messageLen())
	for j := range data {
		data[j] = trajectory(1, iter, j)
	}
	return cluster.Message{Src: 1, Dst: 0, Tag: core.DataTag, Iter: iter, Data: data}
}

// timeCodec times the public Encoder and Decoder on a single data frame and
// on a batch frame, as the link goroutines use them (payload rows freshly
// allocated on decode, as on the live path).
func (b *layerBench) timeCodec() error {
	const batchMsgs = 8
	single := distnet.Frame{Type: distnet.FrameData, Msg: benchMessage(b.w, 0)}
	batch := distnet.Frame{Type: distnet.FrameBatch}
	for i := 0; i < batchMsgs; i++ {
		batch.Batch = append(batch.Batch, benchMessage(b.w, i))
	}
	var encErr error
	enc := distnet.NewEncoder(io.Discard, false)
	b.lt.encode = perOp(b.budget/2, func() {
		if err := enc.Encode(&single); err != nil {
			encErr = err
		}
	})
	b.lt.batchEncode = perOp(b.budget/2, func() {
		if err := enc.Encode(&batch); err != nil {
			encErr = err
		}
	}) / batchMsgs
	if encErr != nil {
		return encErr
	}

	var wire bytes.Buffer
	if err := distnet.NewEncoder(&wire, false).Encode(&single); err != nil {
		return err
	}
	var decErr error
	rd := bytes.NewReader(nil)
	dec := distnet.NewDecoder(rd)
	var f distnet.Frame
	b.lt.decode = perOp(b.budget/2, func() {
		rd.Reset(wire.Bytes())
		if err := dec.Decode(&f); err != nil {
			decErr = err
		}
	})
	return decErr
}

// timeRTT times one data frame there and back over loopback TCP through the
// public Encoder and Decoder: the floor under any delivery latency.
func (b *layerBench) timeRTT() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	echoDone := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			echoDone <- err
			return
		}
		defer conn.Close()
		dec := distnet.NewDecoder(bufio.NewReader(conn))
		dec.Reuse = true
		enc := distnet.NewEncoder(conn, false)
		var f distnet.Frame
		for {
			if err := dec.Decode(&f); err != nil {
				if err == io.EOF {
					err = nil
				}
				echoDone <- err
				return
			}
			if err := enc.Encode(&f); err != nil {
				echoDone <- err
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	enc := distnet.NewEncoder(conn, false)
	dec := distnet.NewDecoder(bufio.NewReader(conn))
	dec.Reuse = true
	ping := distnet.Frame{Type: distnet.FrameData, Msg: benchMessage(b.w, 0)}
	var pong distnet.Frame
	var rtErr error
	b.lt.rtt = perOp(b.budget, func() {
		if err := enc.Encode(&ping); err != nil {
			rtErr = err
			return
		}
		if err := dec.Decode(&pong); err != nil {
			rtErr = err
		}
	})
	conn.Close()
	if err := <-echoDone; err != nil && rtErr == nil {
		rtErr = err
	}
	return rtErr
}

func (b *layerBench) timePlan() error {
	inj := faults.NewInjector(netmodel.Fixed{D: b.w.latency.Seconds()}, b.seed)
	bytes := 8*b.w.messageLen() + 64
	b.lt.plan = perOp(b.budget/4, func() { _ = inj.Plan(0, 1, bytes, b.w.spec.Procs, 0) })
	return nil
}

// timeCheckpoint takes a real engine snapshot at the workload's shapes (the
// engine block's run with checkpointing on), then times the snapshot codec
// and FileStore custody: Save is the fsync + rename the coordinator pays per
// checkpoint frame on svc-jobs.
func (b *layerBench) timeCheckpoint() error {
	rowLen := b.w.messageLen()
	mem := checkpoint.NewMemStore()
	_, err := core.Run(newMemTransport(b.w.spec.Procs, rowLen), &meanApp{out: make([]float64, rowLen)},
		core.Config{FW: b.w.spec.FW, MaxIter: 64, CheckpointEvery: 5, CheckpointStore: mem})
	if err != nil {
		return err
	}
	blob, ok := mem.Load(0)
	if !ok {
		return fmt.Errorf("engine wrote no checkpoint")
	}
	snap, err := checkpoint.Decode(blob)
	if err != nil {
		return err
	}
	b.lt.snapshotBytes = float64(len(blob))
	b.lt.ckptEncode = perOp(b.budget/4, func() { _ = checkpoint.Encode(snap) })

	if err := os.MkdirAll(b.tmpRoot, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(b.tmpRoot, "ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := checkpoint.NewFileStore(dir)
	if err != nil {
		return err
	}
	b.lt.ckptSave = perOp(b.budget, func() { store.Save(0, blob) })
	if err := store.Err(); err != nil {
		return err
	}
	var loadOK bool
	b.lt.ckptLoad = perOp(b.budget/4, func() { _, loadOK = store.Load(0) })
	if !loadOK {
		return fmt.Errorf("FileStore lost the checkpoint it saved")
	}
	return nil
}
