package distnet

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"specomp/internal/cluster"
)

// The decoder's error taxonomy is load-bearing: io.ErrUnexpectedEOF means
// the *stream* died (retryable — the dial path redials on it), ErrCorrupt
// means the *content* is broken (fatal — retrying a desynchronized stream
// can only make things worse). These tests pin every boundary, including
// the truncated-exactly-at-the-CRC case that is all too easy to misfile as
// corruption.

func assertCorrupt(t *testing.T, err error) {
	t.Helper()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error %v is not ErrCorrupt", err)
	}
	if errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("error %v claims to be both corrupt and truncated", err)
	}
}

func assertTruncated(t *testing.T, err error) {
	t.Helper()
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("error %v is not io.ErrUnexpectedEOF", err)
	}
	if errors.Is(err, ErrCorrupt) {
		t.Fatalf("error %v claims to be both truncated and corrupt", err)
	}
}

func TestErrorTaxonomy(t *testing.T) {
	enc := encodeFrame(t, Frame{Type: FrameData, Msg: cluster.Message{
		Src: 1, Dst: 2, Tag: 1, Iter: 40, SentAt: 0.5,
		Data: []float64{1, 2, 3},
	}})
	// Layout landmarks inside enc: [0,4) length, [4, len-4) payload,
	// [len-4, len) CRC.
	crcStart := len(enc) - 4

	t.Run("clean close at frame boundary is io.EOF", func(t *testing.T) {
		if _, err := readFrame(bytes.NewReader(nil)); err != io.EOF {
			t.Fatalf("empty stream: got %v, want io.EOF", err)
		}
		var buf bytes.Buffer
		buf.Write(enc)
		if _, err := readFrame(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := readFrame(&buf); err != io.EOF {
			t.Fatalf("after last frame: got %v, want io.EOF", err)
		}
	})

	t.Run("every mid-frame truncation is ErrUnexpectedEOF", func(t *testing.T) {
		// Including the boundary cases: inside the length prefix, at the
		// payload/CRC boundary, and one byte into the CRC — a frame cut at
		// its checksum is a dead stream, not a corrupt peer.
		for n := 1; n < len(enc); n++ {
			_, err := readFrame(bytes.NewReader(enc[:n]))
			if err == nil {
				t.Fatalf("truncation to %d/%d bytes decoded", n, len(enc))
			}
			assertTruncated(t, err)
		}
	})

	t.Run("truncated exactly at CRC start", func(t *testing.T) {
		_, err := readFrame(bytes.NewReader(enc[:crcStart]))
		assertTruncated(t, err)
	})

	t.Run("payload corruption is ErrCorrupt", func(t *testing.T) {
		for i := 4; i < len(enc); i++ { // payload and CRC bytes
			bad := append([]byte(nil), enc...)
			bad[i] ^= 0x40
			_, err := readFrame(bytes.NewReader(bad))
			if err == nil {
				t.Fatalf("corrupting byte %d decoded", i)
			}
			assertCorrupt(t, err)
		}
	})

	t.Run("complete but malformed body is ErrCorrupt", func(t *testing.T) {
		cases := map[string][]byte{
			"unknown type":   frameFor([]byte{0xee}),
			"trailing bytes": frameFor(append([]byte{byte(FrameHeartbeat)}, 0xaa)),
			"truncated body": frameFor(append([]byte{byte(FrameHello)}, 1, 2, 3)), // rank needs 8 bytes, has 3
			"lying data len": frameFor(append(append([]byte{byte(FrameData)}, make([]byte, 48)...), 0x7f, 0xff, 0xff, 0xff)),
			"empty payload":  frameFor(nil),
			"zero length":    {0, 0, 0, 0},
		}
		for name, raw := range cases {
			_, err := readFrame(bytes.NewReader(raw))
			if err == nil {
				t.Fatalf("%s decoded", name)
			}
			assertCorrupt(t, err)
		}
	})

	t.Run("oversized length is ErrCorrupt", func(t *testing.T) {
		_, err := readFrame(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff}))
		assertCorrupt(t, err)
	})

	t.Run("every decode error is exactly one class", func(t *testing.T) {
		// Sweep prefixes of a two-frame stream plus every 1-byte corruption:
		// the union of everything above, asserting the trichotomy.
		stream := append(append([]byte(nil), enc...), enc...)
		for n := 0; n <= len(stream); n++ {
			r := bytes.NewReader(stream[:n])
			for {
				_, err := readFrame(r)
				if err == nil {
					continue
				}
				if err != io.EOF {
					one := errors.Is(err, ErrCorrupt) != errors.Is(err, io.ErrUnexpectedEOF)
					if !one {
						t.Fatalf("prefix %d: error %v is not exactly one of ErrCorrupt/ErrUnexpectedEOF", n, err)
					}
				}
				break
			}
		}
	})
}
