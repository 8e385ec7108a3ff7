// Package checkpoint provides deterministic, versioned snapshot/restore of
// speculative-engine state. A restarted processor restores its last snapshot
// and rejoins the computation from there instead of from iteration zero.
//
// The encoding is a fixed-order binary layout (magic, version, then every
// field in declaration order; little-endian int64/float64 words) with no
// maps, so encoding the same Snapshot twice yields byte-identical blobs —
// the property the golden round-trip test pins down. Snapshot producers are
// responsible for presenting state in a canonical order (slices sorted by
// iteration); the engine does this when it builds a Snapshot.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
)

// Version is the current snapshot format version. Decode rejects blobs
// written by a different major layout.
const Version = 1

// magic brands a blob as a speculation checkpoint ("SPCK").
var magic = [4]byte{'S', 'P', 'C', 'K'}

// Entry is one iteration-tagged vector of values.
type Entry struct {
	Iter int
	Data []float64
}

// Snapshot is everything a processor needs to resume mid-computation:
// counters, its own per-iteration results, per-peer validated history,
// stashed (received but not yet consumed) actuals, pending speculated
// inputs, deferred-validation marks, and the recent-broadcast log used to
// serve peer catch-up requests.
//
// Slice order is semantic: Hist/Received/Preds-row slots are indexed by
// peer id; Own, Received[k], SentLog and Overrun must be sorted ascending
// by iteration so encoding is canonical.
type Snapshot struct {
	Proc      int // processor id the snapshot belongs to
	Epoch     int // incarnation epoch at snapshot time
	Validated int // highest fully validated iteration
	Frontier  int // highest computed iteration

	Own      []Entry   // own results per iteration, ascending
	Hist     [][]Entry // per peer: validated history ring, oldest first
	Received [][]Entry // per peer: stashed actual messages, ascending
	// Preds holds pending speculated inputs: one row per iteration
	// (ascending), each row one slot per peer (nil = no prediction).
	Preds   []PredRow
	Overrun []int   // iterations whose validation was deferred, ascending
	SentLog []Entry // recent own broadcasts, ascending (rejoin catch-up)
}

// PredRow is the speculated per-peer input vector for one iteration.
type PredRow struct {
	Iter int
	Data [][]float64 // indexed by peer; nil slot = no prediction held
}

// Encode serializes a snapshot into a fresh, exactly sized blob. Same
// Snapshot in, same bytes out.
func Encode(s *Snapshot) []byte { return AppendEncode(nil, s) }

// Size returns the exact length of s's encoding.
func Size(s *Snapshot) int {
	n := len(magic) + 5*8 // version, proc, epoch, validated, frontier
	n += entriesSize(s.Own)
	n += 8
	for _, h := range s.Hist {
		n += entriesSize(h)
	}
	n += 8
	for _, r := range s.Received {
		n += entriesSize(r)
	}
	n += 8
	for _, row := range s.Preds {
		n += 2 * 8
		for _, d := range row.Data {
			n += 8 + 8*len(d)
		}
	}
	n += 8 + 8*len(s.Overrun)
	return n + entriesSize(s.SentLog)
}

func entriesSize(es []Entry) int {
	n := 8
	for _, e := range es {
		n += 2*8 + 8*len(e.Data)
	}
	return n
}

// AppendEncode appends s's encoding to dst and returns the extended slice.
// The blob is sized before it is written: dst grows at most once, and not
// at all when cap(dst)-len(dst) >= Size(s) — a caller that keeps the
// returned slice and passes it back as dst[:0] encodes without allocating.
func AppendEncode(dst []byte, s *Snapshot) []byte {
	off, n := len(dst), Size(s)
	dst = slices.Grow(dst, n)[:off+n]
	w := writer{buf: dst[off:]}
	w.off = copy(w.buf, magic[:])
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
	return dst
}

// Decode parses a blob produced by Encode.
func Decode(b []byte) (*Snapshot, error) {
	r := reader{buf: b}
	var m [4]byte
	if len(b) < len(magic) {
		return nil, errors.New("checkpoint: blob too short")
	}
	copy(m[:], b[:4])
	r.off = 4
	if m != magic {
		return nil, errors.New("checkpoint: bad magic")
	}
	v, err := r.int()
	if err != nil {
		return nil, err
	}
	if v != Version {
		return nil, fmt.Errorf("checkpoint: version %d, want %d", v, Version)
	}
	s := &Snapshot{}
	if s.Proc, err = r.int(); err != nil {
		return nil, err
	}
	if s.Epoch, err = r.int(); err != nil {
		return nil, err
	}
	if s.Validated, err = r.int(); err != nil {
		return nil, err
	}
	if s.Frontier, err = r.int(); err != nil {
		return nil, err
	}
	if s.Own, err = r.entries(); err != nil {
		return nil, err
	}
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	s.Hist = make([][]Entry, n)
	for i := range s.Hist {
		if s.Hist[i], err = r.entries(); err != nil {
			return nil, err
		}
	}
	if n, err = r.count(); err != nil {
		return nil, err
	}
	s.Received = make([][]Entry, n)
	for i := range s.Received {
		if s.Received[i], err = r.entries(); err != nil {
			return nil, err
		}
	}
	if n, err = r.count(); err != nil {
		return nil, err
	}
	s.Preds = make([]PredRow, n)
	for i := range s.Preds {
		if s.Preds[i].Iter, err = r.int(); err != nil {
			return nil, err
		}
		var slots int
		if slots, err = r.count(); err != nil {
			return nil, err
		}
		s.Preds[i].Data = make([][]float64, slots)
		for k := range s.Preds[i].Data {
			if s.Preds[i].Data[k], err = r.floats(); err != nil {
				return nil, err
			}
		}
	}
	if n, err = r.count(); err != nil {
		return nil, err
	}
	s.Overrun = make([]int, n)
	for i := range s.Overrun {
		if s.Overrun[i], err = r.int(); err != nil {
			return nil, err
		}
	}
	if s.SentLog, err = r.entries(); err != nil {
		return nil, err
	}
	if r.off != len(r.buf) {
		return nil, fmt.Errorf("checkpoint: %d trailing bytes", len(r.buf)-r.off)
	}
	return s, nil
}

// Order peeks the (epoch, validated-iteration) pair from a blob's SPCK
// header without decoding the body: the key a latest-wins custody cell
// orders snapshots by. ok is false for anything that is not a
// current-version snapshot.
func Order(b []byte) (epoch, iter int, ok bool) {
	const epochOff = len(magic) + 2*8 // after magic, version, proc
	if len(b) < epochOff+2*8 || [4]byte(b[:4]) != magic ||
		int64(binary.LittleEndian.Uint64(b[4:])) != Version {
		return 0, 0, false
	}
	return int(int64(binary.LittleEndian.Uint64(b[epochOff:]))),
		int(int64(binary.LittleEndian.Uint64(b[epochOff+8:]))), true
}

// Store is the stable storage a processor checkpoints to. In the simulation
// it survives crashes (a crashed Proc loses its memory, not its disk).
//
// Save borrows blob: it is valid until Save returns and not a moment longer —
// the engine encodes its next snapshot into the same memory — and Save must
// not write to it. A store that needs the bytes later copies them (MemStore,
// distnet's coordStore) or is done with them on return (FileStore). What Load
// returns belongs to the caller.
type Store interface {
	Save(proc int, blob []byte)
	Load(proc int) ([]byte, bool)
}

// MemStore is an in-memory Store, safe for concurrent use. The zero value
// is not ready; use NewMemStore.
type MemStore struct {
	mu    sync.Mutex
	blobs map[int][]byte
	saves map[int]int
}

// NewMemStore returns an empty store.
func NewMemStore() *MemStore {
	return &MemStore{blobs: make(map[int][]byte), saves: make(map[int]int)}
}

// Save keeps a private copy of blob as proc's latest checkpoint.
func (m *MemStore) Save(proc int, blob []byte) {
	cp := make([]byte, len(blob))
	copy(cp, blob)
	m.mu.Lock()
	m.blobs[proc] = cp
	m.saves[proc]++
	m.mu.Unlock()
}

// Load returns a copy of proc's latest checkpoint, if any.
func (m *MemStore) Load(proc int) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.blobs[proc]
	if !ok {
		return nil, false
	}
	cp := make([]byte, len(b))
	copy(cp, b)
	return cp, true
}

// Saves reports how many times proc has checkpointed.
func (m *MemStore) Saves(proc int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.saves[proc]
}

// --- wire helpers -------------------------------------------------------

// nilLen marks a nil float slice (distinct from an empty one).
const nilLen = -1

// writer stores words by index into a buffer AppendEncode has already
// extended to the snapshot's exact size.
type writer struct {
	buf []byte
	off int
}

func (w *writer) putInt(v int) {
	binary.LittleEndian.PutUint64(w.buf[w.off:], uint64(int64(v)))
	w.off += 8
}

func (w *writer) putFloats(d []float64) {
	if d == nil {
		w.putInt(nilLen)
		return
	}
	w.putInt(len(d))
	b := w.buf[w.off : w.off+8*len(d)]
	for i, f := range d {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(f))
	}
	w.off += len(b)
}

func (w *writer) putEntries(es []Entry) {
	w.putInt(len(es))
	for _, e := range es {
		w.putInt(e.Iter)
		w.putFloats(e.Data)
	}
}

type reader struct {
	buf []byte
	off int
}

func (r *reader) word() (uint64, error) {
	if r.off+8 > len(r.buf) {
		return 0, errors.New("checkpoint: truncated blob")
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v, nil
}

func (r *reader) int() (int, error) {
	v, err := r.word()
	return int(int64(v)), err
}

// count reads a non-negative element count and sanity-bounds it against the
// bytes remaining so a corrupt blob cannot force a huge allocation.
func (r *reader) count() (int, error) {
	n, err := r.int()
	if err != nil {
		return 0, err
	}
	if n < 0 || n > (len(r.buf)-r.off)/8 {
		return 0, fmt.Errorf("checkpoint: implausible count %d", n)
	}
	return n, nil
}

func (r *reader) floats() ([]float64, error) {
	n, err := r.int()
	if err != nil {
		return nil, err
	}
	if n == nilLen {
		return nil, nil
	}
	if n < 0 || n > (len(r.buf)-r.off)/8 {
		return nil, fmt.Errorf("checkpoint: implausible float count %d", n)
	}
	out := make([]float64, n)
	for i := range out {
		v, err := r.word()
		if err != nil {
			return nil, err
		}
		out[i] = math.Float64frombits(v)
	}
	return out, nil
}

func (r *reader) entries() ([]Entry, error) {
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	out := make([]Entry, n)
	for i := range out {
		if out[i].Iter, err = r.int(); err != nil {
			return nil, err
		}
		if out[i].Data, err = r.floats(); err != nil {
			return nil, err
		}
	}
	return out, nil
}
