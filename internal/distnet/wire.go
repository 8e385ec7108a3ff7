// Package distnet runs the speculation engine across real OS processes over
// TCP — the substrate the paper actually measured on (16 workstations under
// PVM on shared Ethernet), rebuilt on modern sockets.
//
// The package has three layers:
//
//   - a length-prefixed, CRC-checked binary wire codec for cluster.Message
//     plus the control frames of the runtime protocol, with multi-message
//     batch frames (wire.go, batch.go);
//   - per-peer TCP connection management — dial retry with exponential
//     backoff, buffered writers, idle-link heartbeats and dead-peer
//     detection (peer.go);
//   - a coordinator handling membership, rank assignment, run configuration,
//     the start barrier, checkpoint custody and result collection
//     (coord.go), and a node runtime driving the unchanged internal/core
//     engine through the core.Transport contract (node.go). Each side
//     serves its listener with one acceptor for the whole run: every
//     inbound connection's hello is read on its own goroutine and decided
//     by one rule, so a stray, silent or garbled connection is closed and
//     changes nothing.
//
// A run is one coordinator process plus P node processes (cmd/speccoord and
// cmd/specnode); nodes may equally run in-process for tests. Observability
// (internal/obs metrics + journal, served per node over HTTP) and
// checkpointing (internal/checkpoint, snapshots held at the coordinator)
// ride through unchanged.
package distnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"sync"

	"specomp/internal/cluster"
	"specomp/internal/inbox"
)

// FrameType tags the kind of a wire frame.
type FrameType uint8

// Wire frame types. FrameData carries one cluster.Message between peers and
// FrameBatch carries several bound for the same peer; the rest are control
// frames of the coordinator/mesh protocol.
const (
	FrameData       FrameType = 1 + iota // peer → peer: one cluster.Message
	FrameHello                           // both directions: identity (rank, epoch, listen addr)
	FrameConfig                          // coord → node: rank, membership, run spec (JSON blob)
	FrameHeartbeat                       // peer → peer: liveness beacon (idle links only)
	FrameBarrier                         // node → coord: arrival; coord → node: release
	FrameCheckpoint                      // node → coord: snapshot custody (proc, blob)
	FrameResult                          // node → coord: run outcome (JSON blob + raw final partition)
	FrameShutdown                        // coord → node: run over, tear down
	FrameBatch                           // peer → peer: several cluster.Messages in one frame
	FrameObs                             // node → coord: metrics snapshot (rank, Prometheus text blob)
	frameTypeEnd
)

// String returns the frame-type name.
func (t FrameType) String() string {
	switch t {
	case FrameData:
		return "data"
	case FrameHello:
		return "hello"
	case FrameConfig:
		return "config"
	case FrameHeartbeat:
		return "heartbeat"
	case FrameBarrier:
		return "barrier"
	case FrameCheckpoint:
		return "checkpoint"
	case FrameResult:
		return "result"
	case FrameShutdown:
		return "shutdown"
	case FrameBatch:
		return "batch"
	case FrameObs:
		return "obs"
	}
	return fmt.Sprintf("frame(%d)", uint8(t))
}

// MaxFrame bounds one frame's encoded payload. Larger frames are refused on
// both encode and decode — the decoder never allocates more than this on
// behalf of the wire.
const MaxFrame = 16 << 20

// nilData marks a nil message payload on the wire, preserving the nil/empty
// distinction the in-process transports keep (the engine's barrier and
// rejoin frames carry nil payloads).
const nilData = ^uint32(0)

// msgBodyMin is the smallest data body: seven 8-byte fields and the length
// word of a nil payload. The decoder bounds a batch frame's claimed entry
// count by it before decoding anything.
const msgBodyMin = 7*8 + 4

// Error taxonomy of the decoder. Every decode failure is exactly one of:
//
//   - io.EOF — the stream closed cleanly between frames;
//   - io.ErrUnexpectedEOF (wrapped) — the stream died mid-frame. The frame
//     itself may have been fine; the failure is transport-level and a caller
//     with a redial path may retry;
//   - ErrCorrupt (wrapped) — the frame arrived complete but failed
//     validation (CRC mismatch, malformed body, unknown type, oversized or
//     empty length, trailing bytes). The stream is desynchronized or the
//     peer is broken: fatal, never retried.
//
// The distinction matters to handshake paths: a node whose hello reply was
// cut off mid-frame redials, one that read garbage gives up.
var ErrCorrupt = errors.New("corrupt frame")

// Frame is one unit on the wire. Which fields are meaningful depends on
// Type; unused fields must be zero.
type Frame struct {
	Type FrameType
	// Msg is the payload of a FrameData frame.
	Msg cluster.Message
	// Batch is the payload of a FrameBatch frame: several messages bound for
	// the same peer, coalesced into one frame. Decoder.Decode reuses the
	// slice between calls; see its contract.
	Batch []cluster.Message
	// Rank identifies the sender in a FrameHello (-1 before the coordinator
	// assigned one) and the owning processor in a FrameCheckpoint.
	Rank int
	// Epoch is the sender's incarnation epoch in a FrameHello.
	Epoch int
	// Addr is the sender's peer listen address in a FrameHello.
	Addr string
	// Blob carries the JSON body of FrameConfig/FrameResult, the checkpoint
	// snapshot of FrameCheckpoint, and the Prometheus text snapshot of
	// FrameObs.
	Blob []byte
	// Final is a FrameResult's optional raw tail: the rank's final partition,
	// bit-exact (NaN payloads, ±Inf and −0 survive, which JSON cannot carry).
	// Nil means no tail.
	Final []float64
	// Clock is a FrameHeartbeat's optional timestamp tail (unix seconds),
	// used for NTP-style clock-offset estimation on peer links:
	// {sender's send time, echo of the last stamp seen from the peer, local
	// receive time of that stamp}. All-zero means no tail.
	Clock [3]float64
}

// Wire layout: a frame is
//
//	[u32 n] [payload: n bytes] [u32 crc32-IEEE(payload)]
//
// with payload = [u8 type][type-specific body], all integers big-endian.
// Body layouts (i64 = two's-complement int64, f64 = IEEE-754 bits):
//
//	data       i64 src, dst, tag, iter, epoch · f64 sentAt, hold · u32 n|nil · n×f64
//	batch      u32 count · count×data body
//	hello      i64 rank, epoch · u32 len · addr bytes
//	config     u32 len · blob
//	heartbeat  (empty | 3×f64 clock stamps)
//	barrier    (empty)
//	checkpoint i64 proc · u32 len · blob
//	result     u32 len · blob · (empty | u32 n · n×f64 final)
//	shutdown   (empty)
//	obs        i64 rank · u32 len · blob
//
// hold is the delay, in seconds, the receiver's inbox owes the message
// (cluster.Message.Hold); one that is negative, NaN or beyond a
// time.Duration is corrupt. The heartbeat clock tail and the result final
// tail are optional (absent reads as zero/nil); a partial clock tail, or a
// final tail whose count disagrees with the bytes that follow it, is
// corrupt. Every node of a run is the same build: nothing is negotiated.

// appendI64 encodes v big-endian onto dst.
func appendI64(dst []byte, v int64) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(v))
}

// appendU32 encodes v big-endian onto dst.
func appendU32(dst []byte, v uint32) []byte {
	return binary.BigEndian.AppendUint32(dst, v)
}

// appendFloats encodes a non-nil payload vector as u32 n · n×f64.
func appendFloats(dst []byte, v []float64) []byte {
	dst = appendU32(slices.Grow(dst, 4+8*len(v)), uint32(len(v)))
	for _, x := range v {
		dst = appendI64(dst, int64(math.Float64bits(x)))
	}
	return dst
}

// appendMsg encodes m as a data body, the body of a FrameData frame and of
// each batch entry.
func appendMsg(dst []byte, m *cluster.Message) []byte {
	dst = appendI64(dst, int64(m.Src))
	dst = appendI64(dst, int64(m.Dst))
	dst = appendI64(dst, int64(m.Tag))
	dst = appendI64(dst, int64(m.Iter))
	dst = appendI64(dst, int64(m.Epoch))
	dst = appendI64(dst, int64(math.Float64bits(m.SentAt)))
	dst = appendI64(dst, int64(math.Float64bits(m.Hold)))
	if m.Data == nil {
		return appendU32(dst, nilData)
	}
	return appendFloats(dst, m.Data)
}

// appendPayload encodes f's payload (type byte + body) onto dst. The blob of
// a checkpoint or obs frame — the last field of its body and nearly all of
// its bytes — is not copied: it comes back as tail, the bytes that follow
// dst on the wire.
func appendPayload(dst []byte, f *Frame) (_, tail []byte, _ error) {
	dst = append(dst, byte(f.Type))
	switch f.Type {
	case FrameData:
		dst = appendMsg(dst, &f.Msg)
	case FrameBatch:
		if len(f.Batch) == 0 {
			return nil, nil, fmt.Errorf("distnet: encoding empty batch frame")
		}
		dst = appendU32(dst, uint32(len(f.Batch)))
		for i := range f.Batch {
			dst = appendMsg(dst, &f.Batch[i])
		}
	case FrameHello:
		dst = appendI64(dst, int64(f.Rank))
		dst = appendI64(dst, int64(f.Epoch))
		dst = appendU32(dst, uint32(len(f.Addr)))
		dst = append(dst, f.Addr...)
	case FrameConfig, FrameResult:
		dst = appendU32(dst, uint32(len(f.Blob)))
		dst = append(dst, f.Blob...)
		if f.Type == FrameResult && f.Final != nil {
			dst = appendFloats(dst, f.Final)
		}
	case FrameCheckpoint, FrameObs:
		dst = appendI64(dst, int64(f.Rank))
		dst = appendU32(dst, uint32(len(f.Blob)))
		tail = f.Blob
	case FrameHeartbeat:
		if f.Clock != ([3]float64{}) {
			for _, v := range f.Clock {
				dst = appendI64(dst, int64(math.Float64bits(v)))
			}
		}
	case FrameBarrier, FrameShutdown:
		// No body.
	default:
		return nil, nil, fmt.Errorf("distnet: encoding unknown frame type %d", f.Type)
	}
	return dst, tail, nil
}

// scratchBufs lends encode/decode byte buffers to the stateless
// writeFrame/readFrame paths (control-plane links, tests); the data-plane
// Encoder/Decoder hold their own persistent buffers instead. It is a plain
// freelist, not a sync.Pool: a pool's hit depends on the P a goroutine runs
// on and on when the collector last ran, so whether the coordinator decoded
// a rank's final partition (a frame of megabytes) into a fresh buffer
// changed from one fleet run to the next, 2 MB a rank on kernel-heat. For
// the same reason readFrame borrows only once it knows the frame's length,
// and takes the buffer that fits it best. A buffer only grows; the list
// keeps at most scratchKeep, and the large ones are those that carried
// result frames, no more than were decoded at once.
var scratchBufs struct {
	mu   sync.Mutex
	free [][]byte
}

const scratchKeep = 16

// getScratch lends the smallest free buffer that holds n bytes, else the
// largest free one for its user to grow (nil when none is free).
func getScratch(n int) []byte {
	scratchBufs.mu.Lock()
	defer scratchBufs.mu.Unlock()
	free := scratchBufs.free
	best := -1
	for i, b := range free {
		if best < 0 || fitsBetter(cap(b), cap(free[best]), n) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	b := free[best]
	last := len(free) - 1
	free[best], free[last] = free[last], nil
	scratchBufs.free = free[:last]
	return b
}

// fitsBetter reports whether a buffer of capacity c serves an n-byte need
// better than one of capacity cur: it holds n and is smaller, or cur does
// not hold n and c is larger.
func fitsBetter(c, cur, n int) bool {
	if cur >= n {
		return c >= n && c < cur
	}
	return c > cur
}

// putScratch gives b back to scratchBufs. When the list is full, b takes
// the place of its smallest buffer if it is larger, else goes to the
// collector.
func putScratch(b []byte) {
	if cap(b) == 0 {
		return
	}
	scratchBufs.mu.Lock()
	defer scratchBufs.mu.Unlock()
	free := scratchBufs.free
	if len(free) < scratchKeep {
		scratchBufs.free = append(free, b[:0])
		return
	}
	small := 0
	for i := range free {
		if cap(free[i]) < cap(free[small]) {
			small = i
		}
	}
	if cap(b) > cap(free[small]) {
		free[small] = b[:0]
	}
}

// frameHead encodes f into buf (reusing its capacity) up to where its tail
// begins — length prefix and payload head — and returns the checksum of the
// whole payload. The complete frame is head · tail · u32 sum.
func frameHead(buf []byte, f *Frame) (head, tail []byte, sum uint32, err error) {
	// Reserve the length prefix, encode the payload in place, then patch the
	// length in.
	buf = append(buf[:0], 0, 0, 0, 0)
	buf, tail, err = appendPayload(buf, f)
	if err != nil {
		return buf, nil, 0, err
	}
	n := len(buf) - 4 + len(tail)
	if n > MaxFrame {
		return buf, nil, 0, fmt.Errorf("distnet: %v frame payload %d bytes exceeds MaxFrame", f.Type, n)
	}
	binary.BigEndian.PutUint32(buf[:4], uint32(n))
	sum = crc32.ChecksumIEEE(buf[4:])
	if len(tail) > 0 {
		sum = crc32.Update(sum, crc32.IEEETable, tail)
	}
	return buf, tail, sum, nil
}

// frameInto encodes f into buf (reusing its capacity) as a complete frame:
// length prefix, payload, checksum.
func frameInto(buf []byte, f *Frame) ([]byte, error) {
	buf, tail, sum, err := frameHead(buf, f)
	if err != nil {
		return buf, err
	}
	return appendU32(append(buf, tail...), sum), nil
}

// writeFrame encodes f and writes it to w. scratch is an optional reusable
// buffer; the (possibly grown) buffer is returned for the next call. A nil
// scratch borrows a scratchBufs buffer for the write and returns nil, so
// one-shot callers stay allocation-free too.
func writeFrame(w io.Writer, scratch []byte, f *Frame) ([]byte, error) {
	pooled := scratch == nil
	if pooled {
		scratch = getScratch(0)
	}
	buf, err := frameInto(scratch, f)
	if err == nil {
		_, err = w.Write(buf)
	}
	if pooled {
		putScratch(buf)
		return nil, err
	}
	return buf, err
}

// Encoder writes frames to one stream, reusing its encode buffer. Not safe
// for concurrent use; each link's writer goroutine owns one.
type Encoder struct {
	w   io.Writer
	buf []byte
}

// NewEncoder returns an Encoder writing to w. Every frame has one encoding,
// so delta must be false; a true delta, which once switched on a delta codec
// for batch entries, panics. The parameter remains only because the
// benchmark harness calls NewEncoder with it.
func NewEncoder(w io.Writer, delta bool) *Encoder {
	if delta {
		panic("distnet: the delta codec is retired; NewEncoder's delta must be false")
	}
	return &Encoder{w: w}
}

// Encode writes one frame. Zero allocations in steady state. A frame with a
// tail (a checkpoint's snapshot, an obs frame's metrics text) is not
// assembled first: head, tail and checksum go to the stream as they stand,
// so the blob is copied at most once on its way out — by the link's bufio
// when it fits there, by the kernel alone when it does not.
func (e *Encoder) Encode(f *Frame) error {
	buf, tail, sum, err := frameHead(e.buf, f)
	if err == nil && tail == nil {
		buf = appendU32(buf, sum) // the usual frame: complete in buf, one write
	}
	if cap(buf) > cap(e.buf) {
		e.buf = buf
	}
	if err != nil {
		return err
	}
	if _, err = e.w.Write(buf); err != nil || tail == nil {
		return err
	}
	if _, err = e.w.Write(tail); err != nil {
		return err
	}
	_, err = e.w.Write(appendU32(buf[:0], sum))
	return err
}

// noEOF maps io.EOF to ErrUnexpectedEOF so a mid-frame cut never looks like
// a clean close.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// corruptf builds an ErrCorrupt-classed decode error.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("distnet: "+format+": %w", append(args, ErrCorrupt)...)
}

// Decoder reads frames from one stream, reusing its payload buffer between
// calls. Not safe for concurrent use; each link's reader goroutine owns one.
//
// Ownership contract of a decoded frame: f.Batch aliases a slice the next
// Decode call reuses — consume or copy the messages first. With Reuse
// false (the default), every Msg.Data payload and Blob is freshly allocated
// and owned by the caller forever (a checkpoint frame's Blob is the decode
// buffer itself, given away) — except on a node's peer links, whose
// decoders take each payload row from the node's inbox, to be released
// there once read. With Reuse true, payloads alias per-decoder buffers valid
// only until the next Decode — the zero-allocation mode for consumers that
// finish with each frame before reading the next (echo servers, benchmarks,
// relays).
type Decoder struct {
	r io.Reader
	// Reuse hands out payload rows owned by the decoder instead of fresh
	// allocations; see the type comment.
	Reuse bool

	lend *inbox.Inbox // lends payload rows when set (a node's peer links)
	buf  []byte
	b    []cluster.Message // reused Batch backing
	rows [][]float64       // Reuse-mode payload rows, indexed by entry position
	pr   payloadReader     // reused cursor (avoids a per-decode escape)
	hdr  [4]byte           // reused header scratch (avoids a per-decode escape)
}

// NewDecoder returns a Decoder reading from r (wrap sockets in a
// bufio.Reader first).
func NewDecoder(r io.Reader) *Decoder { return &Decoder{r: r} }

// Decode reads and decodes one frame into f. Truncated, corrupt (CRC
// mismatch), oversized or malformed frames return an error classified per
// the package taxonomy (ErrCorrupt vs io.ErrUnexpectedEOF vs io.EOF); the
// decoder never panics and never allocates more than the wire actually
// carries (bounded by MaxFrame).
func (d *Decoder) Decode(f *Frame) error {
	n, err := d.header()
	if err != nil {
		return err
	}
	return d.body(f, n)
}

// header reads a frame's length prefix: the payload's size in bytes.
func (d *Decoder) header() (uint32, error) {
	if _, err := io.ReadFull(d.r, d.hdr[:]); err != nil {
		if err == io.EOF {
			return 0, io.EOF // clean close between frames
		}
		return 0, fmt.Errorf("distnet: truncated frame header: %w", noEOF(err))
	}
	n := binary.BigEndian.Uint32(d.hdr[:])
	if n == 0 {
		return 0, corruptf("empty frame")
	}
	if n > MaxFrame {
		return 0, corruptf("frame payload %d bytes exceeds MaxFrame", n)
	}
	return n, nil
}

// body reads and decodes the n-byte payload and checksum after a header.
func (d *Decoder) body(f *Frame, n uint32) error {
	if cap(d.buf) < int(n)+4 {
		d.buf = make([]byte, n+4)
	}
	buf := d.buf[:n+4] // payload + trailing CRC
	if _, err := io.ReadFull(d.r, buf); err != nil {
		return fmt.Errorf("distnet: truncated frame: %w", noEOF(err))
	}
	payload, sum := buf[:n], binary.BigEndian.Uint32(buf[n:])
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return corruptf("frame CRC mismatch (got %08x, want %08x)", got, sum)
	}
	return d.decodePayload(f, payload)
}

// payloadReader cursors over a decoded payload with bounds checking.
type payloadReader struct {
	b   []byte
	off int
	err error
}

func (p *payloadReader) i64() int64 {
	if p.err != nil {
		return 0
	}
	if p.off+8 > len(p.b) {
		p.err = io.ErrUnexpectedEOF
		return 0
	}
	v := binary.BigEndian.Uint64(p.b[p.off:])
	p.off += 8
	return int64(v)
}

func (p *payloadReader) u32() uint32 {
	if p.err != nil {
		return 0
	}
	if p.off+4 > len(p.b) {
		p.err = io.ErrUnexpectedEOF
		return 0
	}
	v := binary.BigEndian.Uint32(p.b[p.off:])
	p.off += 4
	return v
}

func (p *payloadReader) bytes(n int) []byte {
	if p.err != nil {
		return nil
	}
	if n < 0 || p.off+n > len(p.b) {
		p.err = io.ErrUnexpectedEOF
		return nil
	}
	v := p.b[p.off : p.off+n]
	p.off += n
	return v
}

// emptyFloats is the shared empty-but-non-nil payload.
var emptyFloats = []float64{}

// row returns the payload buffer for the i-th message of the current frame:
// a decoder-owned reused row under Reuse, a row lent by lend when set, a
// fresh allocation otherwise.
func (d *Decoder) row(i, n int) []float64 {
	if n == 0 {
		return emptyFloats
	}
	if !d.Reuse {
		if d.lend != nil {
			return d.lend.Row(n)
		}
		return make([]float64, n)
	}
	for len(d.rows) <= i {
		d.rows = append(d.rows, nil)
	}
	if cap(d.rows[i]) < n {
		d.rows[i] = make([]float64, n)
	}
	d.rows[i] = d.rows[i][:n]
	return d.rows[i]
}

// floats decodes the n×f64 body of a payload vector into the i-th row of
// the current frame. A float64 is 8 wire bytes: the count can never exceed
// the remaining payload, so a lying header is caught before any allocation
// proportional to it.
func (d *Decoder) floats(p *payloadReader, i, n int) []float64 {
	raw := p.bytes(n * 8)
	if p.err != nil {
		return nil
	}
	row := d.row(i, n)
	for j := range row {
		row[j] = math.Float64frombits(binary.BigEndian.Uint64(raw[8*j:]))
	}
	return row
}

// decodeMsg decodes a data body into m, its payload into the i-th row of
// the current frame, refusing a hold no inbox can owe. Payload-exhaustion
// failures land in p.err (corrupt to the caller: the payload arrived
// complete).
func (d *Decoder) decodeMsg(p *payloadReader, m *cluster.Message, i int) error {
	m.Src = int(p.i64())
	m.Dst = int(p.i64())
	m.Tag = int(p.i64())
	m.Iter = int(p.i64())
	m.Epoch = int(p.i64())
	m.SentAt = math.Float64frombits(uint64(p.i64()))
	m.Hold = math.Float64frombits(uint64(p.i64()))
	if p.err == nil && !inbox.ValidHold(m.Hold) {
		return corruptf("message hold %v s", m.Hold)
	}
	if n := p.u32(); n != nilData {
		m.Data = d.floats(p, i, int(n))
	}
	return nil
}

// decodePayload decodes a checksummed payload (type byte + body) into f.
// The payload arrived complete (CRC passed), so every failure here is
// corruption, not truncation.
func (d *Decoder) decodePayload(f *Frame, payload []byte) error {
	if len(payload) == 0 {
		return corruptf("empty frame")
	}
	*f = Frame{Type: FrameType(payload[0])}
	d.pr = payloadReader{b: payload, off: 1}
	p := &d.pr
	switch f.Type {
	case FrameData:
		if err := d.decodeMsg(p, &f.Msg, 0); err != nil {
			return err
		}
	case FrameBatch:
		count := int(p.u32())
		if p.err == nil && (count == 0 || count*msgBodyMin > len(payload)-p.off) {
			return corruptf("batch frame claims %d entries in %d bytes", count, len(payload)-p.off)
		}
		d.b = d.b[:0]
		for i := 0; i < count && p.err == nil; i++ {
			var m cluster.Message
			if err := d.decodeMsg(p, &m, i); err != nil {
				return err
			}
			d.b = append(d.b, m)
		}
		f.Batch = d.b
	case FrameHello:
		f.Rank = int(p.i64())
		f.Epoch = int(p.i64())
		f.Addr = string(p.bytes(int(p.u32())))
	case FrameConfig, FrameResult:
		f.Blob = append([]byte(nil), p.bytes(int(p.u32()))...)
		if f.Type == FrameResult && p.err == nil && p.off < len(p.b) {
			// Optional final tail: it runs to the end of the frame, so the
			// count is checked against the remaining bytes before decoding.
			n := int(p.u32())
			if p.err == nil && n*8 != len(p.b)-p.off {
				return corruptf("result frame final tail claims %d values in %d bytes", n, len(p.b)-p.off)
			}
			f.Final = d.floats(p, 0, n)
		}
	case FrameObs:
		f.Rank = int(p.i64())
		f.Blob = append([]byte(nil), p.bytes(int(p.u32()))...)
	case FrameCheckpoint:
		f.Rank = int(p.i64())
		f.Blob = p.bytes(int(p.u32()))
		// A snapshot is nearly all of its frame and a custody cell keeps it
		// for as long as it is the rank's newest, so it is not copied out: the
		// frame takes the decode buffer itself and the next Decode makes a new
		// one — unless something much larger sized this one.
		if cap(d.buf) <= 2*len(f.Blob) {
			d.buf = nil
		} else {
			f.Blob = append([]byte(nil), f.Blob...)
		}
	case FrameHeartbeat:
		if p.off < len(p.b) {
			// Optional clock tail: exactly three stamps or nothing.
			for i := range f.Clock {
				f.Clock[i] = math.Float64frombits(uint64(p.i64()))
			}
		}
	case FrameBarrier, FrameShutdown:
		// No body.
	default:
		return corruptf("unknown frame type %d", payload[0])
	}
	if p.err != nil {
		return corruptf("malformed %v frame body", f.Type)
	}
	if p.off != len(payload) {
		return corruptf("%d trailing bytes after %v frame", len(payload)-p.off, f.Type)
	}
	return nil
}

// readFrame reads and decodes one frame from r with a one-shot decoder on a
// scratchBufs buffer — the stateless path for control-plane links and
// tests. The returned frame owns all its memory (Batch entries are copied
// out).
func readFrame(r io.Reader) (Frame, error) {
	d := Decoder{r: r}
	var f Frame
	n, err := d.header()
	if err != nil {
		return f, err
	}
	if d.buf = getScratch(int(n) + 4); cap(d.buf) < int(n)+4 {
		putScratch(d.buf) // too small here, not for the next small frame
		// Grow rounds the capacity up to what the allocator hands out
		// anyway, which leaves room for a frame a little longer at no cost:
		// a rank's result frame differs by some bytes from run to run.
		d.buf = slices.Grow([]byte(nil), int(n)+4)
	}
	err = d.body(&f, n)
	putScratch(d.buf)
	if err == nil && f.Batch != nil {
		f.Batch = append([]cluster.Message(nil), f.Batch...)
	}
	return f, err
}
