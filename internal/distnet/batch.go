package distnet

// Batch frames and the delta codec.
//
// A FrameBatch coalesces several cluster.Messages bound for the same peer
// into one wire frame, amortizing the length prefix, checksum, syscall and
// wakeup across the batch. Its body is
//
//	u32 count · count × entry
//	entry: i64 src, dst, tag, iter, epoch · f64 sentAt, hold · u8 enc · u32 n|nil · body
//
// enc selects the payload body encoding:
//
//	enc 0 (raw)    body = n × f64
//	enc 1 (delta)  body = u32 elen · elen RLE bytes
//
// Delta coding exploits the paper's workload shape: consecutive sends on
// one (src, dst, tag) stream are successive iterates of the same boundary
// vector, so most float64 bits repeat. The encoder XORs the vector against
// the previous one on the stream and run-length-codes the zero bytes; the
// entry is emitted as a delta only when that is strictly smaller than the
// 8n raw bytes, so pathological inputs cost one comparison and nothing on
// the wire.
//
// Stream state discipline: encoder and decoder each track, per stream, the
// last non-empty vector seen in a *batch entry* (raw or delta — the base is
// the decoded value, so both sides stay in lockstep over the in-order TCP
// stream). Single FrameData frames and nil/empty payloads never touch the
// state. Delta entries are only legal when the run's spec enables delta
// coding (WireSpec.Delta, identical on every node); a delta entry reaching a
// decoder that does not track bases, or without a matching-length base, is
// corrupt.

import (
	"encoding/binary"
	"math"
	"sync"

	"specomp/internal/cluster"
)

// batchPool recycles the message slices carried by outbound FrameBatch
// frames: the sender builds a batch from the pool, and the link's writer
// goroutine returns it after encoding.
var batchPool = sync.Pool{New: func() any { return new([]cluster.Message) }}

// getBatch returns an empty pooled message slice.
func getBatch() []cluster.Message {
	return (*(batchPool.Get().(*[]cluster.Message)))[:0]
}

// releaseBatch returns a batch slice to the pool, clearing its entries so
// pooled slices do not pin message payloads.
func releaseBatch(b []cluster.Message) {
	clear(b)
	b = b[:0]
	batchPool.Put(&b)
}

// batchEntryMin is the smallest possible encoded batch entry (header + enc
// byte + length word, nil payload). The decoder bounds a frame's claimed
// entry count by it before decoding anything.
const batchEntryMin = 7*8 + 1 + 4

// Batch entry payload encodings.
const (
	encRaw   = 0
	encDelta = 1
)

// streamKey identifies one sender→receiver message stream for delta coding.
type streamKey struct{ src, dst, tag int }

// deltaState is one side's per-stream vector bases plus codec scratch and
// (encoder side only) the link's compression instrumentation.
type deltaState struct {
	prev map[streamKey][]float64
	xor  []byte // 8n XOR residual scratch
	rle  []byte // RLE-coded residual scratch
	lo   *linkObs
}

func newDeltaState() *deltaState {
	return &deltaState{prev: make(map[streamKey][]float64)}
}

// note records data as the stream's new base, copying it into state-owned
// memory (callers reuse or release their buffers).
func (ds *deltaState) note(key streamKey, data []float64) {
	prev := ds.prev[key]
	if cap(prev) < len(data) {
		prev = make([]float64, len(data))
	}
	prev = prev[:len(data)]
	copy(prev, data)
	ds.prev[key] = prev
}

// rleAppend run-length-codes src onto dst as a sequence of ops
//
//	[u8 zeroRun][u8 litLen][litLen literal bytes]
//
// and returns the extended dst. Decoding replays ops until the output is
// full, so the encoding is self-delimiting given the known output size.
func rleAppend(dst, src []byte) []byte {
	for i := 0; i < len(src); {
		zeros := 0
		for i < len(src) && src[i] == 0 && zeros < 255 {
			zeros++
			i++
		}
		// Extend the literal run across isolated zero bytes: a lone zero
		// costs 1 literal byte inline vs 2 bytes of op overhead if split.
		start := i
		for i < len(src) && i-start < 255 {
			if src[i] == 0 && (i+1 >= len(src) || src[i+1] == 0) {
				break // a zero run worth its own op starts here
			}
			i++
		}
		dst = append(dst, byte(zeros), byte(i-start))
		dst = append(dst, src[start:i]...)
	}
	return dst
}

// rleExpand decodes src into out (whose length is the known decoded size).
// It reports false if src does not decode to exactly len(out) bytes.
func rleExpand(out, src []byte) bool {
	o := 0
	for i := 0; i < len(src); {
		if i+2 > len(src) {
			return false
		}
		zeros, lit := int(src[i]), int(src[i+1])
		i += 2
		if o+zeros+lit > len(out) || i+lit > len(src) {
			return false
		}
		clear(out[o : o+zeros])
		o += zeros
		copy(out[o:], src[i:i+lit])
		o += lit
		i += lit
	}
	return o == len(out)
}

// appendBatchEntry encodes one batch entry onto dst. A non-nil ds attempts
// delta coding against the entry's stream base and records the vector as
// the new base.
func appendBatchEntry(dst []byte, m *cluster.Message, ds *deltaState) []byte {
	dst = appendMsgHeader(dst, m)
	if m.Data == nil {
		return appendU32(append(dst, encRaw), nilData)
	}
	n := len(m.Data)
	if ds != nil && n > 0 {
		key := streamKey{m.Src, m.Dst, m.Tag}
		if prev := ds.prev[key]; len(prev) == n {
			// XOR residual vs the base, then RLE it.
			if cap(ds.xor) < 8*n {
				ds.xor = make([]byte, 8*n)
			}
			xb := ds.xor[:8*n]
			for i, v := range m.Data {
				binary.BigEndian.PutUint64(xb[8*i:], math.Float64bits(v)^math.Float64bits(prev[i]))
			}
			ds.rle = rleAppend(ds.rle[:0], xb)
			if len(ds.rle)+4 < 8*n { // strictly smaller than raw, or not worth it
				if ds.lo != nil {
					ds.lo.deltaEntries.Inc()
					ds.lo.deltaRatio.Observe(float64(len(ds.rle)+4) / float64(8*n))
				}
				dst = appendU32(append(dst, encDelta), uint32(n))
				dst = appendU32(dst, uint32(len(ds.rle)))
				dst = append(dst, ds.rle...)
				ds.note(key, m.Data)
				return dst
			}
			if ds.lo != nil {
				ds.lo.deltaFallback.Inc()
				ds.lo.deltaRatio.Observe(1)
			}
		}
		ds.note(key, m.Data)
	}
	return appendFloats(append(dst, encRaw), m.Data)
}

// decodeBatchEntry decodes the i-th entry of the current batch frame.
// Payload-exhaustion failures land in p.err (classified ErrCorrupt by the
// caller — the payload arrived complete); semantic failures return
// ErrCorrupt directly.
func (d *Decoder) decodeBatchEntry(p *payloadReader, i int) (cluster.Message, error) {
	var m cluster.Message
	if err := decodeMsgHeader(p, &m); err != nil {
		return m, err
	}
	enc := p.u8()
	nw := p.u32()
	if p.err != nil {
		return m, nil
	}
	if nw == nilData {
		if enc != encRaw {
			return m, corruptf("batch entry %d: nil payload with enc %d", i, enc)
		}
		return m, nil
	}
	n := int(nw)
	switch enc {
	case encRaw:
		m.Data = d.floats(p, i, n)
		if p.err != nil {
			return m, nil
		}
	case encDelta:
		if !d.Track || d.ds == nil {
			return m, corruptf("batch entry %d: delta entry on a link without delta tracking", i)
		}
		elen := int(p.u32())
		raw := p.bytes(elen)
		if p.err != nil {
			return m, nil
		}
		key := streamKey{m.Src, m.Dst, m.Tag}
		prev := d.ds.prev[key]
		if len(prev) != n {
			return m, corruptf("batch entry %d: delta entry without a %d-element base on stream %v", i, n, key)
		}
		if cap(d.ds.xor) < 8*n {
			d.ds.xor = make([]byte, 8*n)
		}
		xb := d.ds.xor[:8*n]
		if !rleExpand(xb, raw) {
			return m, corruptf("batch entry %d: RLE residual does not decode to %d bytes", i, 8*n)
		}
		m.Data = d.row(i, n)
		for j := range m.Data {
			m.Data[j] = math.Float64frombits(binary.BigEndian.Uint64(xb[8*j:]) ^ math.Float64bits(prev[j]))
		}
	default:
		return m, corruptf("batch entry %d: unknown payload encoding %d", i, enc)
	}
	if d.Track && n > 0 {
		if d.ds == nil {
			d.ds = newDeltaState()
		}
		d.ds.note(streamKey{m.Src, m.Dst, m.Tag}, m.Data)
	}
	return m, nil
}
