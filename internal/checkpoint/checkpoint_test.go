package checkpoint

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func sample() *Snapshot {
	return &Snapshot{
		Proc:      2,
		Epoch:     1,
		Validated: 17,
		Frontier:  19,
		Own: []Entry{
			{Iter: 17, Data: []float64{1.5, -2.25}},
			{Iter: 18, Data: []float64{math.Pi, math.Inf(1)}},
			{Iter: 19, Data: []float64{}},
		},
		Hist: [][]Entry{
			{{Iter: 15, Data: []float64{0.5}}, {Iter: 16, Data: []float64{0.25}}},
			nil,
			{{Iter: 17, Data: []float64{-0}}},
		},
		Received: [][]Entry{
			{{Iter: 18, Data: []float64{9}}},
			{},
			nil,
		},
		Preds: []PredRow{
			{Iter: 18, Data: [][]float64{nil, {3.5}, nil}},
			{Iter: 19, Data: [][]float64{{1}, {2}, nil}},
		},
		Overrun: []int{18, 19},
		SentLog: []Entry{{Iter: 16, Data: []float64{7}}, {Iter: 17, Data: []float64{8}}},
	}
}

func TestRoundTripGolden(t *testing.T) {
	s := sample()
	blob := Encode(s)
	// Deterministic: encoding twice yields identical bytes.
	if !bytes.Equal(blob, Encode(s)) {
		t.Fatal("two encodings of the same snapshot differ")
	}
	got, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	// Byte-identical round trip: decode → re-encode reproduces the blob.
	if !bytes.Equal(blob, Encode(got)) {
		t.Fatal("decode→encode round trip is not byte-identical")
	}
	// Nil-ness of float slices survives (nil slot ≠ empty prediction).
	if got.Preds[0].Data[0] != nil || got.Preds[0].Data[1] == nil {
		t.Errorf("prediction nil-ness lost: %+v", got.Preds[0])
	}
	if got.Own[2].Data == nil {
		t.Error("empty (non-nil) own data decoded as nil")
	}
	if got.Proc != 2 || got.Epoch != 1 || got.Validated != 17 || got.Frontier != 19 {
		t.Errorf("counters corrupted: %+v", got)
	}
	if !reflect.DeepEqual(got.Overrun, s.Overrun) {
		t.Errorf("overrun set corrupted: %v", got.Overrun)
	}
	if len(got.Hist) != 3 || !reflect.DeepEqual(got.Hist[0], s.Hist[0]) {
		t.Errorf("history corrupted: %+v", got.Hist)
	}
}

func TestDecodeRejectsCorruptBlobs(t *testing.T) {
	blob := Encode(sample())
	cases := map[string][]byte{
		"empty":     {},
		"short":     blob[:3],
		"bad magic": append([]byte("NOPE"), blob[4:]...),
		"truncated": blob[:len(blob)-5],
		"trailing":  append(append([]byte{}, blob...), 0, 0, 0, 0, 0, 0, 0, 0),
	}
	bad := append([]byte{}, blob...)
	bad[4] = 99 // version word
	cases["bad version"] = bad
	for name, b := range cases {
		if _, err := Decode(b); err == nil {
			t.Errorf("%s: Decode accepted a corrupt blob", name)
		}
	}
	// A count word replaced with a huge value must error, not allocate.
	huge := append([]byte{}, blob...)
	for i := 4 + 8*5; i < 4+8*6; i++ {
		huge[i] = 0x7f
	}
	if _, err := Decode(huge); err == nil {
		t.Error("huge count accepted")
	}
}

func TestMemStore(t *testing.T) {
	st := NewMemStore()
	if _, ok := st.Load(0); ok {
		t.Fatal("empty store claims a checkpoint")
	}
	blob := []byte{1, 2, 3}
	st.Save(0, blob)
	blob[0] = 9 // caller mutation must not reach the store
	got, ok := st.Load(0)
	if !ok || got[0] != 1 {
		t.Fatalf("stored blob corrupted by caller mutation: %v", got)
	}
	got[1] = 9 // nor must reader mutation
	again, _ := st.Load(0)
	if again[1] != 2 {
		t.Fatal("stored blob corrupted by reader mutation")
	}
	st.Save(0, []byte{4})
	if got, _ := st.Load(0); len(got) != 1 || got[0] != 4 {
		t.Fatal("Save did not replace the previous checkpoint")
	}
	if st.Saves(0) != 2 || st.Saves(1) != 0 {
		t.Errorf("Saves = %d/%d, want 2/0", st.Saves(0), st.Saves(1))
	}
}

// referenceEncode is the encoder as it stood before AppendEncode (commit
// 2bd80f5), kept verbatim: it grows its buffer from nil one word at a time.
// It is the reference the sized, indexed encoder is compared against.
func referenceEncode(s *Snapshot) []byte {
	var w refWriter
	w.buf = append(w.buf, magic[:]...)
	w.putInt(Version)
	w.putInt(s.Proc)
	w.putInt(s.Epoch)
	w.putInt(s.Validated)
	w.putInt(s.Frontier)
	w.putEntries(s.Own)
	w.putInt(len(s.Hist))
	for _, h := range s.Hist {
		w.putEntries(h)
	}
	w.putInt(len(s.Received))
	for _, r := range s.Received {
		w.putEntries(r)
	}
	w.putInt(len(s.Preds))
	for _, row := range s.Preds {
		w.putInt(row.Iter)
		w.putInt(len(row.Data))
		for _, d := range row.Data {
			w.putFloats(d)
		}
	}
	w.putInt(len(s.Overrun))
	for _, it := range s.Overrun {
		w.putInt(it)
	}
	w.putEntries(s.SentLog)
	return w.buf
}

type refWriter struct{ buf []byte }

func (w *refWriter) putInt(v int) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(int64(v)))
}

func (w *refWriter) putFloats(d []float64) {
	if d == nil {
		w.putInt(nilLen)
		return
	}
	w.putInt(len(d))
	for _, f := range d {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(f))
	}
}

func (w *refWriter) putEntries(es []Entry) {
	w.putInt(len(es))
	for _, e := range es {
		w.putInt(e.Iter)
		w.putFloats(e.Data)
	}
}

// randSnapshot draws a snapshot for P processors with every shape the format
// has: nil, empty and long vectors (NaN, ±Inf and -0 among the values), nil
// and empty sections, negative counters.
func randSnapshot(rng *rand.Rand, P int) *Snapshot {
	vec := func() []float64 {
		switch rng.Intn(6) {
		case 0:
			return nil
		case 1:
			return []float64{}
		}
		n := 1 + rng.Intn(8)
		if rng.Intn(8) == 0 {
			n = 200 + rng.Intn(2000)
		}
		d := make([]float64, n)
		for i := range d {
			switch rng.Intn(12) {
			case 0:
				d[i] = math.Float64frombits(rng.Uint64()) // any bit pattern, NaN payloads included
			case 1:
				d[i] = math.Copysign(0, -1)
			default:
				d[i] = rng.NormFloat64()
			}
		}
		return d
	}
	entries := func() []Entry {
		switch rng.Intn(5) {
		case 0:
			return nil
		case 1:
			return []Entry{}
		}
		es := make([]Entry, 1+rng.Intn(6))
		for i := range es {
			es[i] = Entry{Iter: rng.Intn(1000) - 5, Data: vec()}
		}
		return es
	}
	s := &Snapshot{
		Proc: rng.Intn(P), Epoch: rng.Intn(3), Validated: rng.Intn(1000) - 1, Frontier: rng.Intn(1000) - 1,
		Own: entries(), SentLog: entries(),
	}
	if rng.Intn(4) > 0 {
		s.Hist = make([][]Entry, P)
		s.Received = make([][]Entry, P)
		for k := 0; k < P; k++ {
			s.Hist[k], s.Received[k] = entries(), entries()
		}
	}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		row := PredRow{Iter: s.Validated + 1 + i, Data: make([][]float64, P)}
		for k := range row.Data {
			row.Data[k] = vec()
		}
		s.Preds = append(s.Preds, row)
	}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		s.Overrun = append(s.Overrun, s.Validated+1+i)
	}
	return s
}

// TestAppendEncodeMatchesReference: over 300 random snapshots the sized
// encoder writes exactly the reference's bytes — into a nil dst, one too
// small to hold them, and an oversized one full of stale data — keeps what
// dst already held, reallocates only when it must, and Size is the blob's
// length.
func TestAppendEncodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	dirty := make([]byte, 1<<20)
	for i := 0; i < 300; i++ {
		s := randSnapshot(rng, 1+rng.Intn(5))
		want := referenceEncode(s)
		if n := Size(s); n != len(want) {
			t.Fatalf("snapshot %d: Size = %d, reference encodes %d bytes", i, n, len(want))
		}
		if got := Encode(s); !bytes.Equal(got, want) {
			t.Fatalf("snapshot %d: Encode differs from the reference", i)
		}
		prefix := []byte("kept")
		small := append(make([]byte, 0, len(prefix)+len(want)/2), prefix...)
		if got := AppendEncode(small, s); !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("snapshot %d: AppendEncode into a too-small dst differs from the reference", i)
		}
		rng.Read(dirty[:len(want)+64])
		got := AppendEncode(dirty[:0], s)
		if !bytes.Equal(got, want) {
			t.Fatalf("snapshot %d: AppendEncode into a dirty dst differs from the reference", i)
		}
		if &got[0] != &dirty[0] {
			t.Fatalf("snapshot %d: AppendEncode reallocated though cap(dst) sufficed", i)
		}
		back, err := Decode(got)
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		if !bytes.Equal(Encode(back), want) {
			t.Fatalf("snapshot %d: decode→encode is not byte-identical", i)
		}
	}
}
