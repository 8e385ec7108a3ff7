package distnet

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"specomp/internal/cluster"
)

// pipeCodec builds a connected Encoder/Decoder pair over one buffer, with
// delta coding on or off at both ends.
func pipeCodec(delta bool) (*Encoder, *Decoder, *bytes.Buffer) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf, delta)
	dec := NewDecoder(&buf)
	dec.Track = delta
	return enc, dec, &buf
}

// randBatchMsg builds one batch-able message on a small set of streams so
// consecutive frames revisit streams (exercising delta bases).
func randBatchMsg(rng *rand.Rand, iter int) cluster.Message {
	m := cluster.Message{
		Src: rng.Intn(4), Dst: rng.Intn(4), Tag: rng.Intn(3) - 1,
		Iter: iter, Epoch: rng.Intn(3), SentAt: rng.Float64(), Hold: rng.ExpFloat64() * 1e-3,
	}
	switch rng.Intn(5) {
	case 0:
		// nil payload
	case 1:
		m.Data = []float64{}
	default:
		m.Data = make([]float64, 1+rng.Intn(40))
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

func msgEqual(a, b cluster.Message) bool {
	if a.Src != b.Src || a.Dst != b.Dst || a.Tag != b.Tag ||
		a.Iter != b.Iter || a.Epoch != b.Epoch || !sameFloat(a.SentAt, b.SentAt) || !sameFloat(a.Hold, b.Hold) {
		return false
	}
	if (a.Data == nil) != (b.Data == nil) || len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if !sameFloat(a.Data[i], b.Data[i]) {
			return false
		}
	}
	return true
}

// TestBatchRoundTrip streams many random batch frames through a persistent
// Encoder/Decoder pair, raw and delta, checking every message survives
// byte-exactly and frames never leave residue in the buffer.
func TestBatchRoundTrip(t *testing.T) {
	for _, delta := range []bool{false, true} {
		name := "raw"
		if delta {
			name = "delta"
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			enc, dec, buf := pipeCodec(delta)
			for frame := 0; frame < 300; frame++ {
				want := make([]cluster.Message, 1+rng.Intn(8))
				for i := range want {
					want[i] = randBatchMsg(rng, frame)
				}
				if err := enc.Encode(&Frame{Type: FrameBatch, Batch: want}); err != nil {
					t.Fatalf("frame %d: encode: %v", frame, err)
				}
				var got Frame
				if err := dec.Decode(&got); err != nil {
					t.Fatalf("frame %d: decode: %v", frame, err)
				}
				if got.Type != FrameBatch || len(got.Batch) != len(want) {
					t.Fatalf("frame %d: got %v with %d entries, want batch of %d", frame, got.Type, len(got.Batch), len(want))
				}
				for i := range want {
					if !msgEqual(got.Batch[i], want[i]) {
						t.Fatalf("frame %d entry %d mismatch:\n got %+v\nwant %+v", frame, i, got.Batch[i], want[i])
					}
				}
				if buf.Len() != 0 {
					t.Fatalf("frame %d: %d bytes left over", frame, buf.Len())
				}
			}
		})
	}
}

// TestBatchDeltaInterleavedWithSingles pins the state discipline: single
// FrameData frames on the same streams never touch delta bases, so deltas
// across them still decode.
func TestBatchDeltaInterleavedWithSingles(t *testing.T) {
	enc, dec, _ := pipeCodec(true)
	base := []float64{1, 2, 3, 4}
	next := []float64{1, 2, 3.5, 4}
	divergent := []float64{9, 9, 9, 9} // same stream, via FrameData: must NOT become the base
	send := func(f Frame) {
		t.Helper()
		if err := enc.Encode(&f); err != nil {
			t.Fatal(err)
		}
		var got Frame
		if err := dec.Decode(&got); err != nil {
			t.Fatal(err)
		}
		switch f.Type {
		case FrameBatch:
			for i := range f.Batch {
				if !msgEqual(got.Batch[i], f.Batch[i]) {
					t.Fatalf("entry %d mismatch: got %+v want %+v", i, got.Batch[i], f.Batch[i])
				}
			}
		case FrameData:
			if !msgEqual(got.Msg, f.Msg) {
				t.Fatalf("data mismatch: got %+v want %+v", got.Msg, f.Msg)
			}
		}
	}
	m := func(data []float64, iter int) cluster.Message {
		return cluster.Message{Src: 0, Dst: 1, Tag: 1, Iter: iter, Data: data}
	}
	send(Frame{Type: FrameBatch, Batch: []cluster.Message{m(base, 0)}})
	send(Frame{Type: FrameData, Msg: m(divergent, 1)}) // single: no state change
	send(Frame{Type: FrameBatch, Batch: []cluster.Message{m(next, 2)}})
}

// TestBatchDeltaSmaller verifies the payoff: consecutive near-identical
// vectors on one stream delta-code to materially fewer wire bytes than the
// raw encoding, while a fresh (baseless) or length-changed vector falls
// back to raw without error.
func TestBatchDeltaSmaller(t *testing.T) {
	vec := make([]float64, 256)
	for i := range vec {
		vec[i] = float64(i) * 0.25
	}
	frameBytes := func(enc *Encoder, buf *bytes.Buffer, dec *Decoder, data []float64, iter int) int {
		t.Helper()
		f := Frame{Type: FrameBatch, Batch: []cluster.Message{
			{Src: 0, Dst: 1, Tag: 1, Iter: iter, Data: data},
		}}
		if err := enc.Encode(&f); err != nil {
			t.Fatal(err)
		}
		n := buf.Len()
		var got Frame
		if err := dec.Decode(&got); err != nil {
			t.Fatal(err)
		}
		if !msgEqual(got.Batch[0], f.Batch[0]) {
			t.Fatalf("iter %d: payload mismatch", iter)
		}
		return n
	}

	enc, dec, buf := pipeCodec(true)
	first := frameBytes(enc, buf, dec, vec, 0) // no base yet: raw
	perturbed := append([]float64(nil), vec...)
	perturbed[7] += 1e-9
	second := frameBytes(enc, buf, dec, perturbed, 1) // delta vs base
	if second >= first/4 {
		t.Errorf("near-identical vector: delta frame %dB, want < ¼ of raw %dB", second, first)
	}

	// Length change: no matching base, falls back to raw.
	resized := vec[:100]
	third := frameBytes(enc, buf, dec, resized, 2)
	if third < 8*len(resized) {
		t.Errorf("resized vector: %dB frame cannot hold %d raw floats — fell into a bogus delta?", third, len(resized))
	}
}

// TestBatchDeltaIncompressibleFallsBack feeds vectors with nothing in
// common: the encoder must emit raw (delta would be larger), and the frame
// must stay within a small overhead of the raw payload.
func TestBatchDeltaIncompressibleFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	enc, dec, buf := pipeCodec(true)
	for iter := 0; iter < 4; iter++ {
		data := make([]float64, 128)
		for i := range data {
			data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
		}
		f := Frame{Type: FrameBatch, Batch: []cluster.Message{
			{Src: 0, Dst: 1, Tag: 1, Iter: iter, Data: data},
		}}
		if err := enc.Encode(&f); err != nil {
			t.Fatal(err)
		}
		if got, limit := buf.Len(), 8*len(data)+batchEntryMin+16; got > limit {
			t.Fatalf("iter %d: incompressible frame is %dB, want ≤ %dB (raw + framing)", iter, got, limit)
		}
		var out Frame
		if err := dec.Decode(&out); err != nil {
			t.Fatal(err)
		}
		if !msgEqual(out.Batch[0], f.Batch[0]) {
			t.Fatalf("iter %d: payload mismatch", iter)
		}
	}
}

// TestBatchCorruptCases drives the corrupt-batch taxonomy: every semantic
// violation must surface as ErrCorrupt (the payload arrived complete).
func TestBatchCorruptCases(t *testing.T) {
	entry := func(n int, enc byte, tail []byte) []byte {
		p := []byte{byte(FrameBatch), 0, 0, 0, 1}
		p = append(p, make([]byte, 56)...) // header: src..hold all zero
		p = append(p, enc)
		p = appendU32(p, uint32(n))
		return append(p, tail...)
	}
	cases := map[string][]byte{
		"empty batch":        {byte(FrameBatch), 0, 0, 0, 0},
		"lying entry count":  {byte(FrameBatch), 0, 0, 0, 200},
		"unknown encoding":   entry(0, 7, nil),
		"nil with delta enc": entry(-1, encDelta, nil),
		"delta without base": entry(2, encDelta, appendU32(nil, 2)[:4:4]),
		"short raw body":     entry(4, encRaw, make([]byte, 8)),
	}
	// "delta without base" needs its RLE bytes appended after the elen word.
	cases["delta without base"] = append(cases["delta without base"], 0, 0)
	for name, payload := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := readFrame(bytes.NewReader(frameFor(payload)))
			if err == nil {
				t.Fatal("corrupt batch decoded successfully")
			}
			assertCorrupt(t, err)
		})
	}
}

// TestRLERoundTrip exercises the residual coder directly on adversarial
// byte patterns.
func TestRLERoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	patterns := [][]byte{
		{},
		make([]byte, 1024),           // all zeros
		bytes.Repeat([]byte{7}, 600), // no zeros, > 255 literal run
		{0, 1, 0, 2, 0, 0, 3, 0},
	}
	long := make([]byte, 2048)
	for i := range long {
		if rng.Intn(3) == 0 {
			long[i] = byte(rng.Intn(256))
		}
	}
	patterns = append(patterns, long)
	for i, src := range patterns {
		enc := rleAppend(nil, src)
		out := make([]byte, len(src))
		if !rleExpand(out, enc) {
			t.Fatalf("pattern %d: expand failed", i)
		}
		if !bytes.Equal(out, src) {
			t.Fatalf("pattern %d: round trip mismatch", i)
		}
		// Truncated RLE streams must be detected, not over/under-fill.
		for cut := 0; cut < len(enc); cut++ {
			if rleExpand(out, enc[:cut]) && cut != 0 {
				if !bytes.Equal(out, src) {
					t.Fatalf("pattern %d: truncated stream expanded to wrong bytes", i)
				}
			}
		}
	}
}

// TestWireSteadyStateZeroAlloc is the codec's analogue of core's
// exact-malloc-delta test: after warm-up, a reusing Encoder/Decoder pair
// must move frames (single and batched, raw and delta) with zero heap
// allocations per frame. Growth in iteration count must not grow mallocs.
func TestWireSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	run := func(iters int, delta bool) uint64 {
		var buf bytes.Buffer
		enc := NewEncoder(&buf, delta)
		dec := NewDecoder(&buf)
		dec.Track = delta
		dec.Reuse = true
		batch := make([]cluster.Message, 4)
		data := make([][]float64, len(batch))
		for i := range batch {
			data[i] = make([]float64, 24)
			batch[i] = cluster.Message{Src: 0, Dst: 1, Tag: i, Data: data[i]}
		}
		single := cluster.Message{Src: 1, Dst: 0, Tag: 1, Data: make([]float64, 16)}
		var out Frame
		step := func(iter int) {
			for i := range batch {
				batch[i].Iter = iter
				data[i][iter%len(data[i])] = float64(iter)
			}
			if err := enc.Encode(&Frame{Type: FrameBatch, Batch: batch}); err != nil {
				t.Fatal(err)
			}
			if err := dec.Decode(&out); err != nil {
				t.Fatal(err)
			}
			single.Iter = iter
			if err := enc.Encode(&Frame{Type: FrameData, Msg: single}); err != nil {
				t.Fatal(err)
			}
			if err := dec.Decode(&out); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 50; i++ { // warm-up: buffers, delta bases, pool rows
			step(i)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < iters; i++ {
			step(50 + i)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	for _, delta := range []bool{false, true} {
		name := "raw"
		if delta {
			name = "delta"
		}
		t.Run(name, func(t *testing.T) {
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			const short, long = 200, 2000
			ok := false
			var dShort, dLong uint64
			for attempt := 0; attempt < 3 && !ok; attempt++ {
				dShort = run(short, delta)
				dLong = run(long, delta)
				// Mallocs must not scale with iterations: the whole budget is
				// the fixed warm-up slack (runtime background noise allowed).
				ok = dLong <= dShort+8
			}
			if !ok {
				t.Fatalf("steady-state allocations scale with frames: %d mallocs for %d iters vs %d for %d",
					dLong, long, dShort, short)
			}
		})
	}
}
