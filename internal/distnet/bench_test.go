package distnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"specomp/internal/checkpoint"
	"specomp/internal/cluster"
	"specomp/internal/obs"
)

// BenchmarkFrameEncode measures the codec alone: one data frame with a
// 256-element payload through a persistent Encoder.
func BenchmarkFrameEncode(b *testing.B) {
	f := Frame{Type: FrameData, Msg: cluster.Message{
		Src: 0, Dst: 1, Tag: 1, Iter: 100, SentAt: 1.5,
		Data: make([]float64, 256),
	}}
	var buf bytes.Buffer
	enc := NewEncoder(&buf, false)
	if err := enc.Encode(&f); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := enc.Encode(&f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameDecode measures the decode side of the same frame through a
// persistent reusing Decoder — the data-plane reader configuration.
func BenchmarkFrameDecode(b *testing.B) {
	f := Frame{Type: FrameData, Msg: cluster.Message{
		Src: 0, Dst: 1, Tag: 1, Iter: 100, SentAt: 1.5,
		Data: make([]float64, 256),
	}}
	var buf bytes.Buffer
	if _, err := writeFrame(&buf, nil, &f); err != nil {
		b.Fatal(err)
	}
	enc := buf.Bytes()
	r := bytes.NewReader(enc)
	dec := NewDecoder(r)
	dec.Reuse = true
	var got Frame
	b.ReportAllocs()
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(enc)
		if err := dec.Decode(&got); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoopbackRoundTrip measures one data-frame round trip over a real
// 127.0.0.1 TCP connection — the latency floor under every distributed run
// on one machine, and the figure to compare against the simulator's
// modelled latencies. Both ends run the persistent Encoder/Decoder pair in
// reuse mode, so steady state is zero allocations per round trip (allocs/op
// counts every goroutine, echo peer included).
func BenchmarkLoopbackRoundTrip(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()

	// Echo peer: read a frame, write it straight back.
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		dec := NewDecoder(bufio.NewReader(conn))
		dec.Reuse = true
		enc := NewEncoder(conn, false)
		var f Frame
		for {
			if err := dec.Decode(&f); err != nil {
				return
			}
			if err := enc.Encode(&f); err != nil {
				return
			}
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	enc := NewEncoder(conn, false)
	dec := NewDecoder(bufio.NewReader(conn))
	dec.Reuse = true

	f := Frame{Type: FrameData, Msg: cluster.Message{
		Src: 0, Dst: 1, Tag: 1, Iter: 7, SentAt: 0.5,
		Data: make([]float64, 64), // a typical strip-edge payload
	}}
	var resp Frame
	roundTrip := func() {
		if err := enc.Encode(&f); err != nil {
			b.Fatal(err)
		}
		if err := dec.Decode(&resp); err != nil {
			b.Fatal(err)
		}
	}
	// Warm up both ends' buffers so the timed region is steady state.
	for i := 0; i < 16; i++ {
		roundTrip()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
}

// benchLinkThroughput streams b.N 16-element messages one way over loopback
// TCP and waits for the receiver to acknowledge the full count, so the
// timed region covers the whole pipe: encode, syscalls, wakeups, decode.
// batchSize 1 writes one FrameData (and one syscall) per message — the
// per-message baseline the writer goroutine degenerates to without
// batching; batchSize k coalesces k messages per FrameBatch. A non-nil lo
// runs the sender with the wire-plane instrumentation attached, the way a
// live node's writer goroutine does.
func benchLinkThroughput(b *testing.B, batchSize int, lo *linkObs) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()

	// Receiver: drain to EOF counting messages, then acknowledge the count.
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		dec := NewDecoder(bufio.NewReaderSize(conn, 64<<10))
		dec.Reuse = true
		var f Frame
		count := uint64(0)
		for {
			err := dec.Decode(&f)
			if err == io.EOF {
				break
			}
			if err != nil {
				return
			}
			switch f.Type {
			case FrameData:
				count++
			case FrameBatch:
				count += uint64(len(f.Batch))
			}
		}
		var ack [8]byte
		binary.BigEndian.PutUint64(ack[:], count)
		_, _ = conn.Write(ack[:])
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	enc := NewEncoder(conn, false)

	msg := cluster.Message{
		Src: 0, Dst: 1, Tag: 1, SentAt: 0.5,
		Data: make([]float64, 16), // the strip-edge payload of a small run
	}
	b.SetBytes(16 * 8)
	b.ReportAllocs()
	b.ResetTimer()
	if batchSize <= 1 {
		f := Frame{Type: FrameData, Msg: msg}
		for i := 0; i < b.N; i++ {
			f.Msg.Iter = i
			if err := enc.Encode(&f); err != nil {
				b.Fatal(err)
			}
			lo.noteFrame()
		}
	} else {
		f := Frame{Type: FrameBatch, Batch: make([]cluster.Message, 0, batchSize)}
		for i := 0; i < b.N; i++ {
			msg.Iter = i
			f.Batch = append(f.Batch, msg)
			if len(f.Batch) == batchSize || i == b.N-1 {
				if err := enc.Encode(&f); err != nil {
					b.Fatal(err)
				}
				f.Batch = f.Batch[:0]
				lo.noteFrame()
			}
		}
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		b.Fatal(err)
	}
	var ack [8]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if got := binary.BigEndian.Uint64(ack[:]); got != uint64(b.N) {
		b.Fatalf("receiver counted %d messages, want %d", got, b.N)
	}
}

// BenchmarkLinkThroughput compares per-message framing against batch
// framing on one TCP link; the batched/frames ratio is the wire-plane
// speedup batching buys (the acceptance floor is 2×).
func BenchmarkLinkThroughput(b *testing.B) {
	b.Run("frames", func(b *testing.B) { benchLinkThroughput(b, 1, nil) })
	for _, size := range []int{8, 32} {
		b.Run(fmt.Sprintf("batched%d", size), func(b *testing.B) { benchLinkThroughput(b, size, nil) })
	}
	// The instrumented variant: same 32-message batches with a live linkObs
	// attached to the sender. Its allocs/op must match the plain run — the
	// observability plane is not allowed to put allocations on the data path.
	b.Run("batched32obs", func(b *testing.B) {
		reg := obs.NewRegistry()
		benchLinkThroughput(b, 32, newWireObs(reg, 0, 2).link(1))
	})
}

// BenchmarkWireInstrumentation measures the wire-plane metric hooks
// themselves, enabled against nil, exercising exactly the calls a node's
// send/writer/deliver path makes per message. Both variants must report
// 0 allocs/op — the nil fast path because it does nothing, the enabled path
// because counters, gauges and histograms mutate in place.
func BenchmarkWireInstrumentation(b *testing.B) {
	run := func(b *testing.B, w *wireObs) {
		lo := w.link(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lo.setQueueDepth(i & 63)
			lo.noteFrame()
			lo.observeLatency(0.0003)
			w.noteFlush(flushMsgs, 32)
		}
	}
	b.Run("enabled", func(b *testing.B) { run(b, newWireObs(obs.NewRegistry(), 0, 2)) })
	b.Run("nil", func(b *testing.B) { run(b, nil) })
}

// BenchmarkDeliveryLatency measures the record every delivered message
// leaves for its node's p50/p99 report (latHist.add) over a stream of
// 2 ms ± 0.3 ms samples. It must report 0 allocs/op: the histogram is a fixed
// array, so a node's latency record does not grow with its run.
func BenchmarkDeliveryLatency(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	samples := make([]float64, 1024)
	for i := range samples {
		samples[i] = 2e-3 + 0.6e-3*(rng.Float64()-0.5)
	}
	h := new(latHist)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.add(samples[i&1023])
	}
	b.StopTimer()
	if h.quantile(0.5) == 0 {
		b.Fatal("histogram read p50 = 0 after recording samples")
	}
}

// benchSnapshot is a checkpoint blob the size svc-jobs ships (≈ 37 KB).
func benchSnapshot(rank, iter int) []byte {
	return checkpoint.Encode(&checkpoint.Snapshot{
		Proc: rank, Validated: iter, Frontier: iter,
		Own: []checkpoint.Entry{{Iter: iter, Data: make([]float64, 4600)}},
	})
}

// custodyRig is one scripted node joined to a live coordinator whose
// custody is a real FileStore (temp + fsync + rename per commit).
type custodyRig struct {
	store *checkpoint.FileStore
	coord *Coordinator
	node  *scriptedNode
	blob  []byte
}

func newCustodyRig(b *testing.B) *custodyRig {
	store, err := checkpoint.NewFileStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	coord := scriptedCoordinator(b, 1, time.Minute, store)
	return &custodyRig{store: store, coord: coord, node: scriptedFleet(b, coord)[0], blob: benchSnapshot(0, 1)}
}

// burst streams n checkpoint frames back to back (the same blob: an equal
// order key is accepted every time).
func (r *custodyRig) burst(n int) {
	for i := 0; i < n; i++ {
		r.node.send(Frame{Type: FrameCheckpoint, Blob: r.blob})
	}
}

// result sends the node's result and returns once the coordinator has
// processed it — the shutdown frame is its answer.
func (r *custodyRig) result() {
	report([]*scriptedNode{r.node})
	r.node.expect(FrameShutdown)
}

// finish ends the run, checks every frame was accepted and written without
// error, and reports the group commit's coalescing (1 = a commit per frame).
func (r *custodyRig) finish(b *testing.B, frames int) {
	r.node.conn.Close()
	if _, err := r.coord.Wait(); err != nil {
		b.Fatal(err)
	}
	st := r.coord.Stats()
	if st.CustodySaves != frames || r.store.Err() != nil {
		b.Fatalf("%d/%d frames accepted, store error %v", st.CustodySaves, frames, r.store.Err())
	}
	b.ReportMetric(float64(st.CustodyCommits)/float64(frames), "commits/frame")
}

// BenchmarkCoordCustody measures checkpoint custody through the live
// coordinator event loop, from a node's side of the socket.
//
//	frame            one checkpoint frame of a back-to-back stream that ends
//	                 when a result sent behind it has been processed.
//	result-behind-40 the queueing delay of a result frame written right
//	                 behind a burst of 40 checkpoints: result written →
//	                 shutdown received. Custody on the event loop made this
//	                 40 fsyncs long.
func BenchmarkCoordCustody(b *testing.B) {
	b.Run("frame", func(b *testing.B) {
		rig := newCustodyRig(b)
		b.ResetTimer()
		rig.burst(b.N)
		rig.result()
		b.StopTimer()
		rig.finish(b, b.N)
	})
	b.Run("result-behind-40", func(b *testing.B) {
		var total time.Duration
		for i := 0; i < b.N; i++ {
			rig := newCustodyRig(b)
			rig.burst(40)
			start := time.Now()
			rig.result()
			total += time.Since(start)
			rig.finish(b, 40)
		}
		b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "ns/op")
	})
}

// BenchmarkCoordTeardown measures a finished run's exit: last result
// written → Wait returns, on a 4-node scripted fleet whose nodes close their
// link the moment the shutdown frame arrives.
func BenchmarkCoordTeardown(b *testing.B) {
	var total time.Duration
	for i := 0; i < b.N; i++ {
		coord := scriptedCoordinator(b, 4, time.Minute, nil)
		nodes := scriptedFleet(b, coord)
		for _, n := range nodes {
			go func(n *scriptedNode) {
				if _, err := readFrame(n.br); err == nil { // the shutdown frame
					n.conn.Close()
				}
			}(n)
		}
		start := report(nodes)
		if _, err := coord.Wait(); err != nil {
			b.Fatal(err)
		}
		total += time.Since(start)
	}
	b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "ns/op")
}
