package distnet

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"specomp/internal/cluster"
	"specomp/internal/inbox"
)

// randHold draws a message hold: mostly one an inbox can owe, now and then
// one the decoder must refuse (negative, NaN, +Inf, beyond a Duration).
func randHold(rng *rand.Rand) float64 {
	switch rng.Intn(32) {
	case 0:
		return -rng.ExpFloat64()
	case 1:
		return math.NaN()
	case 2:
		return math.Inf(1)
	case 3:
		return 1e10
	}
	if rng.Intn(2) == 0 {
		return 0
	}
	return rng.ExpFloat64() * 1e-3
}

// holdsValid reports whether every message in f carries a hold the decoder
// accepts.
func holdsValid(f Frame) bool {
	for _, m := range append([]cluster.Message{f.Msg}, f.Batch...) {
		if !inbox.ValidHold(m.Hold) {
			return false
		}
	}
	return true
}

// randFrame builds a random frame of a random type; the property tests
// round-trip it through the codec (or see it refused, for a hold no inbox
// can owe).
func randFrame(rng *rand.Rand) Frame {
	types := []FrameType{
		FrameData, FrameHello, FrameConfig, FrameHeartbeat,
		FrameBarrier, FrameCheckpoint, FrameResult, FrameShutdown,
		FrameBatch, FrameObs,
	}
	f := Frame{Type: types[rng.Intn(len(types))]}
	randBlob := func() []byte {
		b := make([]byte, rng.Intn(256))
		rng.Read(b)
		return b
	}
	randMsg := func() cluster.Message {
		m := cluster.Message{
			Src:    rng.Intn(64) - 1, // cluster.Any = -1 must survive
			Dst:    rng.Intn(64) - 1,
			Tag:    rng.Intn(8) - 1,
			Iter:   rng.Intn(4096) - 2, // negative iters appear in control msgs
			Epoch:  rng.Intn(8),
			SentAt: rng.NormFloat64(),
			Hold:   randHold(rng),
		}
		switch rng.Intn(3) {
		case 0:
			// nil payload (engine barrier/rejoin-ack messages)
		case 1:
			m.Data = []float64{} // empty-but-non-nil must also survive
		default:
			m.Data = make([]float64, 1+rng.Intn(300))
			for i := range m.Data {
				switch rng.Intn(8) {
				case 0:
					m.Data[i] = math.Inf(1)
				case 1:
					m.Data[i] = 0
				default:
					m.Data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
				}
			}
		}
		return m
	}
	switch f.Type {
	case FrameData:
		f.Msg = randMsg()
	case FrameBatch:
		f.Batch = make([]cluster.Message, 1+rng.Intn(8))
		for i := range f.Batch {
			f.Batch[i] = randMsg()
		}
	case FrameHello:
		f.Rank = rng.Intn(18) - 2 // -1 = unassigned must survive
		f.Epoch = rng.Intn(5)
		f.Addr = string(randBlob())
	case FrameConfig, FrameResult:
		f.Blob = randBlob()
		if f.Type == FrameResult {
			f.Final = randMsg().Data // nil = no tail, empty, or values
		}
	case FrameCheckpoint, FrameObs:
		f.Rank = rng.Intn(16)
		f.Blob = randBlob()
	case FrameHeartbeat:
		if rng.Intn(2) == 0 {
			// Timestamped beacon (peer links). Clock[0] must be non-zero —
			// zero means "no tail" and encodes to the empty legacy beacon.
			f.Clock = [3]float64{
				1 + rng.Float64()*1e9, rng.Float64() * 1e9, rng.Float64() * 1e9,
			}
		}
	}
	return f
}

// frameEqual compares frames treating nil and empty blobs/data as distinct
// for Msg.Data (the engine cares) but identical for Blob (it does not).
func frameEqual(a, b Frame) bool {
	if len(a.Blob) == 0 && len(b.Blob) == 0 {
		a.Blob, b.Blob = nil, nil
	}
	return reflect.DeepEqual(a, b)
}

func TestFrameRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var buf bytes.Buffer
	var scratch []byte
	for i := 0; i < 2000; i++ {
		want := randFrame(rng)
		buf.Reset()
		var err error
		scratch, err = writeFrame(&buf, scratch, &want)
		if err != nil {
			t.Fatalf("frame %d (%v): write: %v", i, want.Type, err)
		}
		got, err := readFrame(&buf)
		if !holdsValid(want) {
			if !errors.Is(err, ErrCorrupt) || buf.Len() != 0 {
				t.Fatalf("frame %d (%v) carries a hold no inbox can owe: got %v with %d bytes left, want ErrCorrupt", i, want.Type, err, buf.Len())
			}
			continue
		}
		if err != nil {
			t.Fatalf("frame %d (%v): read: %v", i, want.Type, err)
		}
		if !frameEqual(got, want) {
			t.Fatalf("frame %d: round trip mismatch\n got %+v\nwant %+v", i, got, want)
		}
		if buf.Len() != 0 {
			t.Fatalf("frame %d: %d bytes left over after decode", i, buf.Len())
		}
	}
}

func TestFrameStreamRoundTrip(t *testing.T) {
	// Many frames back to back through one buffer, as on a real socket.
	rng := rand.New(rand.NewSource(11))
	frames := make([]Frame, 200)
	var buf bytes.Buffer
	var scratch []byte
	for i := range frames {
		frames[i] = randFrame(rng)
		var err error
		if scratch, err = writeFrame(&buf, scratch, &frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range frames {
		got, err := readFrame(&buf)
		if !holdsValid(want) { // refused whole: the stream stays in step
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("frame %d carries a hold no inbox can owe: got %v, want ErrCorrupt", i, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !frameEqual(got, want) {
			t.Fatalf("frame %d mismatch", i)
		}
	}
	if _, err := readFrame(&buf); err != io.EOF {
		t.Fatalf("expected clean EOF after last frame, got %v", err)
	}
}

// encodeFrame is a test helper returning one encoded frame.
func encodeFrame(t *testing.T, f Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := writeFrame(&buf, nil, &f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// withEmptyScratch runs f with the scratch list emptied, then puts back
// what it held.
func withEmptyScratch(f func()) {
	scratchBufs.mu.Lock()
	saved := scratchBufs.free
	scratchBufs.free = nil
	scratchBufs.mu.Unlock()
	defer func() {
		scratchBufs.mu.Lock()
		scratchBufs.free = saved
		scratchBufs.mu.Unlock()
	}()
	f()
}

// A result frame is read into a borrowed scratch buffer that outlives the
// collector and fits a frame a few bytes longer than the one it last held:
// once one 2 MB result has been read, the next ones allocate only the
// values they return, with small frames and collections in between. As a
// sync.Pool the list lost its buffers to collections, and an exact-size
// buffer did not fit the next result, so the coordinator's allocations
// changed from one fleet run to the next.
func TestReadFrameReusesScratch(t *testing.T) {
	final := make([]float64, 1<<18)
	encode := func(f Frame) []byte { // with a scratch of its own: the list stays as the reads leave it
		var buf bytes.Buffer
		if _, err := writeFrame(&buf, []byte{}, &f); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	result := func(iters int) []byte {
		return encode(Frame{Type: FrameResult, Blob: fmt.Appendf(nil, `{"iters":%d}`, iters), Final: final})
	}
	small := encode(Frame{Type: FrameData, Msg: cluster.Message{Src: 1, Data: []float64{1}}})
	withEmptyScratch(func() {
		if _, err := readFrame(bytes.NewReader(result(5))); err != nil {
			t.Fatal(err)
		}
		for i, iters := range []int{50, 5, 5000, 500000} {
			runtime.GC()
			runtime.GC()
			if _, err := readFrame(bytes.NewReader(small)); err != nil {
				t.Fatal(err)
			}
			enc := result(iters)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			if _, err := readFrame(bytes.NewReader(enc)); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&m1)
			if grew, values := m1.TotalAlloc-m0.TotalAlloc, uint64(8*len(final)); grew > values+values/2 {
				t.Errorf("read %d: a %d-byte result frame allocated %d bytes, %d of them its values", i, len(enc), grew, values)
			}
		}
	})
}

// The scratch list lends the smallest buffer that fits, else its largest,
// and when full keeps a larger buffer in place of its smallest: a small
// frame never takes the buffer a result frame needs while another is free.
func TestScratchBestFit(t *testing.T) {
	withEmptyScratch(func() {
		putScratch(make([]byte, 0, 64))
		putScratch(make([]byte, 0, 1<<20))
		putScratch(make([]byte, 0, 4096))
		for _, c := range []struct{ n, want int }{{10, 64}, {1000, 4096}, {5000, 1 << 20}} {
			b := getScratch(c.n)
			if cap(b) != c.want {
				t.Errorf("getScratch(%d) lent a %d-byte buffer, want %d", c.n, cap(b), c.want)
			}
			putScratch(b)
		}
		if b := getScratch(2 << 20); cap(b) != 1<<20 {
			t.Errorf("getScratch of more than any holds lent %d bytes, want the largest (%d)", cap(b), 1<<20)
		}
		scratchBufs.free = nil
		for range scratchKeep {
			putScratch(make([]byte, 0, 64))
		}
		putScratch(make([]byte, 0, 1<<20))
		putScratch(make([]byte, 0, 32))
		if n := len(scratchBufs.free); n != scratchKeep {
			t.Fatalf("%d buffers kept, want %d", n, scratchKeep)
		}
		if b := getScratch(1 << 20); cap(b) != 1<<20 {
			t.Errorf("a full list dropped the large buffer (lent %d bytes)", cap(b))
		}
	})
}

func TestReadFrameCorruptAndTruncated(t *testing.T) {
	msg := Frame{Type: FrameData, Msg: cluster.Message{
		Src: 1, Dst: 2, Tag: 1, Iter: 40, SentAt: 0.5,
		Data: []float64{1, 2, 3},
	}}
	enc := encodeFrame(t, msg)

	t.Run("every truncation errors", func(t *testing.T) {
		for n := 1; n < len(enc); n++ {
			_, err := readFrame(bytes.NewReader(enc[:n]))
			if err == nil {
				t.Fatalf("truncation to %d/%d bytes decoded successfully", n, len(enc))
			}
			if err == io.EOF && n >= 4 {
				t.Fatalf("mid-frame truncation to %d bytes reported clean EOF", n)
			}
		}
	})
	t.Run("every single-byte corruption errors", func(t *testing.T) {
		// Flipping any payload or CRC byte must fail the checksum; flipping a
		// length byte must fail length/CRC/truncation checks. Never a panic.
		for i := range enc {
			bad := append([]byte(nil), enc...)
			bad[i] ^= 0x40
			if _, err := readFrame(bytes.NewReader(bad)); err == nil {
				t.Fatalf("corrupting byte %d decoded successfully", i)
			}
		}
	})
	t.Run("oversized length refused before allocation", func(t *testing.T) {
		hdr := []byte{0xff, 0xff, 0xff, 0xff}
		_, err := readFrame(bytes.NewReader(hdr))
		if err == nil || !strings.Contains(err.Error(), "MaxFrame") {
			t.Fatalf("oversized frame: got %v, want MaxFrame error", err)
		}
	})
	t.Run("lying data count refused", func(t *testing.T) {
		// A valid CRC over a payload whose float count exceeds its bytes.
		payload := []byte{byte(FrameData)}
		for i := 0; i < 7; i++ { // src,dst,tag,iter,epoch,sentAt,hold
			payload = append(payload, make([]byte, 8)...)
		}
		payload = append(payload, 0x7f, 0xff, 0xff, 0xff) // claims ~2G floats
		bad := frameFor(payload)
		if _, err := readFrame(bytes.NewReader(bad)); err == nil {
			t.Fatal("lying data count decoded successfully")
		}
	})
	t.Run("unknown type refused", func(t *testing.T) {
		bad := frameFor([]byte{0xee})
		if _, err := readFrame(bytes.NewReader(bad)); err == nil {
			t.Fatal("unknown frame type decoded successfully")
		}
	})
	t.Run("trailing garbage refused", func(t *testing.T) {
		bad := frameFor(append([]byte{byte(FrameHeartbeat)}, 0xaa))
		if _, err := readFrame(bytes.NewReader(bad)); err == nil {
			t.Fatal("heartbeat with trailing bytes decoded successfully")
		}
	})
	t.Run("oversized encode refused", func(t *testing.T) {
		huge := Frame{Type: FrameResult, Blob: make([]byte, MaxFrame+1)}
		var buf bytes.Buffer
		if _, err := writeFrame(&buf, nil, &huge); err == nil {
			t.Fatal("oversized frame encoded successfully")
		}
	})
}

// TestResultFrameFinalTail pins the result frame's raw final-partition
// tail: bit-exact round trips (values JSON cannot carry included), the
// tail-less encoding older builds produce, and a lying count.
func TestResultFrameFinalTail(t *testing.T) {
	big := make([]float64, 1<<18) // the kernel-heat strip: 2 MB, well inside MaxFrame
	rng := rand.New(rand.NewSource(15))
	for i := range big {
		big[i] = math.Float64frombits(rng.Uint64()) // every class of bit pattern, NaN payloads included
	}
	copy(big, []float64{
		math.Inf(1), math.Inf(-1), math.Copysign(0, -1), math.NaN(),
		math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8dead0000beef),
	})
	blob := []byte(`{"iters":500}`)
	for name, final := range map[string][]float64{"nil": nil, "empty": {}, "2^18": big} {
		got, err := readFrame(bytes.NewReader(encodeFrame(t, Frame{Type: FrameResult, Blob: blob, Final: final})))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got.Blob, blob) || (got.Final == nil) != (final == nil) || len(got.Final) != len(final) {
			t.Fatalf("%s: got blob %q and %d finals (nil=%v)", name, got.Blob, len(got.Final), got.Final == nil)
		}
		for i := range final {
			if math.Float64bits(got.Final[i]) != math.Float64bits(final[i]) {
				t.Fatalf("%s: value %d is %x, want %x", name, i, math.Float64bits(got.Final[i]), math.Float64bits(final[i]))
			}
		}
	}

	// A frame without the tail — what a build predating it sends, and what a
	// nil Final encodes to — still decodes, with Final nil.
	legacy := append(appendU32([]byte{byte(FrameResult)}, uint32(len(blob))), blob...)
	if enc := encodeFrame(t, Frame{Type: FrameResult, Blob: blob}); !bytes.Equal(enc, frameFor(legacy)) {
		t.Errorf("nil Final does not encode to the tail-less layout")
	}
	if got, err := readFrame(bytes.NewReader(frameFor(legacy))); err != nil || got.Final != nil || !bytes.Equal(got.Blob, blob) {
		t.Errorf("tail-less result frame: got %+v, %v", got, err)
	}

	// A count that disagrees with the bytes behind it — too many, too few,
	// or astronomically many — is corrupt, and is refused before anything
	// proportional to the claim is allocated.
	three := make([]byte, 3*8)
	for _, claim := range []uint32{5, 2, 1 << 28, nilData} {
		enc := frameFor(append(appendU32(legacy, claim), three...))
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, err := readFrame(bytes.NewReader(enc))
		runtime.ReadMemStats(&m1)
		assertCorrupt(t, err)
		if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 1<<16 {
			t.Errorf("claim of %d values allocated %d bytes before being refused", claim, grew)
		}
	}
	// A tail cut short inside its count word is corrupt too.
	_, err := readFrame(bytes.NewReader(frameFor(append(legacy, 0, 0))))
	assertCorrupt(t, err)
}

func TestFrameTypeString(t *testing.T) {
	for ft := FrameData; ft < frameTypeEnd; ft++ {
		if s := ft.String(); strings.HasPrefix(s, "frame(") {
			t.Errorf("frame type %d has no name", ft)
		}
	}
	if s := FrameType(0xee).String(); s != "frame(238)" {
		t.Errorf("unknown frame type string = %q", s)
	}
}
