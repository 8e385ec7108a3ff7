package distnet

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"specomp/internal/cluster"
)

// randBatchMsg builds one batch-able message: random header fields, and a
// nil, empty or random payload.
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
// Encoder/Decoder pair, checking every message survives byte-exactly and
// frames never leave residue in the buffer.
func TestBatchRoundTrip(t *testing.T) {
	t.Run("raw", func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		var buf bytes.Buffer
		enc, dec := NewEncoder(&buf, false), NewDecoder(&buf)
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

// TestBatchEntryIsADataBody pins the one message encoding: a one-entry
// batch frame's payload is its type byte, u32 1, then exactly the body the
// same message has as a FrameData frame. It also pins that the retired
// delta codec cannot be asked for.
func TestBatchEntryIsADataBody(t *testing.T) {
	payload := func(f Frame) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := NewEncoder(&buf, false).Encode(&f); err != nil {
			t.Fatal(err)
		}
		b := buf.Bytes()
		return b[4 : len(b)-4] // drop the length prefix and the checksum
	}
	m := cluster.Message{Src: 2, Dst: 1, Tag: 3, Iter: 7, Epoch: 1, SentAt: 0.5, Hold: 0.002, Data: []float64{1, -2, math.NaN()}}
	data := payload(Frame{Type: FrameData, Msg: m})
	batch := payload(Frame{Type: FrameBatch, Batch: []cluster.Message{m}})
	want := append([]byte{byte(FrameBatch)}, appendU32(nil, 1)...)
	want = append(want, data[1:]...)
	if !bytes.Equal(batch, want) {
		t.Fatalf("one-entry batch payload\n%x\nwant type byte, u32 1, data body\n%x", batch, want)
	}

	defer func() {
		if recover() == nil {
			t.Error("NewEncoder(w, true) did not panic")
		}
	}()
	NewEncoder(io.Discard, true)
}

// TestBatchCorruptCases drives the corrupt-batch taxonomy: every semantic
// violation must surface as ErrCorrupt (the payload arrived complete).
func TestBatchCorruptCases(t *testing.T) {
	entry := func(n int, tail []byte) []byte {
		p := []byte{byte(FrameBatch), 0, 0, 0, 1}
		p = append(p, make([]byte, 56)...) // header: src..hold all zero
		p = appendU32(p, uint32(n))
		return append(p, tail...)
	}
	cases := map[string][]byte{
		"empty batch":       {byte(FrameBatch), 0, 0, 0, 0},
		"lying entry count": {byte(FrameBatch), 0, 0, 0, 200},
		"short raw body":    entry(4, make([]byte, 8)),
	}
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

// TestWireSteadyStateZeroAlloc is the codec's analogue of core's
// exact-malloc-delta test: after warm-up, a reusing Encoder/Decoder pair
// must move frames (single and batched) with zero heap allocations per
// frame. Growth in iteration count must not grow mallocs.
func TestWireSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	run := func(iters int) uint64 {
		var buf bytes.Buffer
		enc := NewEncoder(&buf, false)
		dec := NewDecoder(&buf)
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
		for i := 0; i < 50; i++ { // warm-up: buffers and reused rows
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
	t.Run("raw", func(t *testing.T) {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		const short, long = 200, 2000
		ok := false
		var dShort, dLong uint64
		for attempt := 0; attempt < 3 && !ok; attempt++ {
			dShort = run(short)
			dLong = run(long)
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
