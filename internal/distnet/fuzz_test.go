package distnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"testing"

	"specomp/internal/cluster"
)

// frameFor wraps a raw payload in a valid length prefix and CRC — the
// adversarial path into decodePayload with the transport checks passing.
func frameFor(payload []byte) []byte {
	buf := make([]byte, 0, len(payload)+8)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
}

// FuzzFrameDecode feeds arbitrary bytes to the frame decoder. The decoder
// must never panic, never over-allocate, and every failure must land in
// exactly one class of the package error taxonomy; whenever it does decode
// a frame, re-encoding and re-decoding must be stable.
//
// Run with: go test -fuzz=FuzzFrameDecode ./internal/distnet
func FuzzFrameDecode(f *testing.F) {
	// Seed corpus: one valid encoding of each frame type, plus raw junk.
	seeds := []Frame{
		{Type: FrameData, Msg: cluster.Message{Src: 0, Dst: 1, Tag: 1, Iter: 3, SentAt: 0.25, Data: []float64{1, 2, 3}}},
		{Type: FrameData, Msg: cluster.Message{Src: 2, Dst: cluster.Any, Tag: 2, Iter: -1}},
		{Type: FrameHello, Rank: -1, Epoch: 1, Addr: "127.0.0.1:9999"},
		{Type: FrameHello, Rank: 4, Epoch: 2, Addr: "127.0.0.1:80"},
		{Type: FrameConfig, Blob: []byte(`{"rank":0}`)},
		{Type: FrameHeartbeat},
		{Type: FrameBarrier},
		{Type: FrameCheckpoint, Rank: 3, Blob: []byte{1, 2, 3, 4}},
		{Type: FrameResult, Blob: []byte(`{"converged":true}`)},
		{Type: FrameResult, Blob: []byte(`{"iters":3}`), Final: []float64{1.5, math.NaN(), math.Copysign(0, -1)}},
		{Type: FrameResult, Final: []float64{}},
		{Type: FrameShutdown},
		{Type: FrameBatch, Batch: []cluster.Message{
			{Src: 0, Dst: 1, Tag: 1, Iter: 5, SentAt: 0.5, Data: []float64{1, 2}},
			{Src: 0, Dst: 1, Tag: 2, Iter: 5},
			{Src: 1, Dst: 0, Tag: 1, Iter: 6, Data: []float64{}},
		}},
		// Holds: one an inbox owes, then three the decoder must refuse.
		{Type: FrameData, Msg: cluster.Message{Src: 0, Dst: 1, Tag: 1, Iter: 4, SentAt: 0.5, Hold: 0.002, Data: []float64{1}}},
		{Type: FrameData, Msg: cluster.Message{Src: 0, Dst: 1, Tag: 1, Iter: 4, Hold: -1}},
		{Type: FrameData, Msg: cluster.Message{Src: 0, Dst: 1, Tag: 1, Iter: 4, Hold: math.NaN()}},
		{Type: FrameBatch, Batch: []cluster.Message{
			{Src: 0, Dst: 1, Tag: 1, Iter: 7, Hold: 0.002, Data: []float64{1, 2}},
			{Src: 0, Dst: 1, Tag: 1, Iter: 8, Hold: math.Inf(1), Data: []float64{1, 2}},
		}},
	}
	for i := range seeds {
		var buf bytes.Buffer
		if _, err := writeFrame(&buf, nil, &seeds[i]); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Add(frameFor([]byte{0xee, 0xaa}))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := readFrame(bytes.NewReader(data))
		if err != nil {
			// Malformed input rejected — but it must be rejected with exactly
			// one taxonomy class: clean close, truncation, or corruption. The
			// dial path retries on truncation and gives up on corruption, so
			// an error in both classes (or neither) breaks real control flow.
			clean := err == io.EOF
			truncated := errors.Is(err, io.ErrUnexpectedEOF)
			corrupt := errors.Is(err, ErrCorrupt)
			classes := 0
			for _, c := range []bool{clean, truncated, corrupt} {
				if c {
					classes++
				}
			}
			if classes != 1 {
				t.Fatalf("decode error %v is in %d taxonomy classes, want exactly 1", err, classes)
			}
			return
		}
		// Decoded OK ⇒ the codec must be stable under re-encode/re-decode.
		var buf bytes.Buffer
		if _, err := writeFrame(&buf, nil, &got); err != nil {
			t.Fatalf("re-encoding decoded frame %+v: %v", got, err)
		}
		again, err := readFrame(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding frame %+v: %v", got, err)
		}
		if !frameEqualFuzz(got, again) {
			t.Fatalf("codec not stable:\n first %+v\nsecond %+v", got, again)
		}
	})
}

// frameEqualFuzz compares frames field by field, treating NaN payload
// elements bit-equal (reflect.DeepEqual would reject NaN == NaN).
func frameEqualFuzz(a, b Frame) bool {
	if a.Type != b.Type || a.Rank != b.Rank || a.Epoch != b.Epoch ||
		a.Addr != b.Addr || !bytes.Equal(a.Blob, b.Blob) {
		return false
	}
	if !msgEqual(a.Msg, b.Msg) || !msgEqual(cluster.Message{Data: a.Final}, cluster.Message{Data: b.Final}) {
		return false
	}
	if (a.Batch == nil) != (b.Batch == nil) || len(a.Batch) != len(b.Batch) {
		return false
	}
	for i := range a.Batch {
		if !msgEqual(a.Batch[i], b.Batch[i]) {
			return false
		}
	}
	return true
}

func sameFloat(a, b float64) bool {
	return a == b || (a != a && b != b) // NaN bit patterns may differ; value-level NaN is enough
}
