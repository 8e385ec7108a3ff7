package checkpoint_test

import (
	"bytes"
	"runtime"
	"testing"

	"specomp/internal/checkpoint"
	"specomp/internal/core"
	"specomp/internal/faults"
)

// fuzzSeeds returns real engine snapshots that between them use every
// corner of the format — FW 0 and FW 2, pending prediction rows with nil
// slots, a non-empty overrun set — plus a hand-built one for what heat never
// writes (an empty but non-nil vector, empty sections). It fails the caller
// if a run stops producing one of those shapes, so the corpus cannot
// quietly lose coverage.
func fuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	seeds := [][]byte{checkpoint.Encode(&checkpoint.Snapshot{
		Proc: 1, Validated: -1, Frontier: -1,
		Own:      []checkpoint.Entry{{Iter: 0, Data: []float64{}}, {Iter: 1}},
		Hist:     [][]checkpoint.Entry{nil, {}},
		Received: [][]checkpoint.Entry{},
		Preds:    []checkpoint.PredRow{{Iter: 1}},
	})}
	// Small grids and a short rejoin log keep the seeds near 1 KB: the fuzzing
	// engine minimizes every input that finds new coverage, byte by byte.
	blocking := engineBlobs(tb, 6, 4, 3, core.Config{FW: 0, MaxIter: 12, CheckpointEvery: 4, RejoinLog: 8}, nil)
	seeds = append(seeds, blocking[len(blocking)-1])

	// recover_test.go's kind of schedule: one rank dies mid-run, survivors
	// overrun their forward window on its account and checkpoint meanwhile.
	chaos := engineBlobs(tb, 6, 4, 3,
		core.Config{FW: 2, MaxIter: 60, Deadline: 0.3, CheckpointEvery: 2, RejoinLog: 8},
		faults.CrashSchedule{{Proc: 1, At: 0.6, Downtime: 0.6}})
	var nilSlot, overrun []byte
	for _, blob := range chaos {
		s, err := checkpoint.Decode(blob)
		if err != nil {
			tb.Fatal(err)
		}
		for _, row := range s.Preds {
			held := 0
			for _, d := range row.Data {
				if d != nil {
					held++
				}
			}
			if held > 0 && held < len(row.Data) {
				nilSlot = blob
			}
		}
		if len(s.Overrun) > 0 {
			overrun = blob
		}
	}
	if nilSlot == nil || overrun == nil {
		tb.Fatalf("engine seeds lost coverage: pending predictions with nil slots %v, overrun set %v",
			nilSlot != nil, overrun != nil)
	}
	return append(seeds, nilSlot, overrun)
}

// FuzzDecode feeds arbitrary bytes to the SPCK decoder — the restore path
// reads blobs that crossed a socket and a disk. It must never panic and
// never allocate more than a small multiple of its input, and the
// fixed-width layout is canonical: whatever it accepts re-encodes to the
// same bytes, at the size Size predicts.
//
// Run with: go test -fuzz=FuzzDecode ./internal/checkpoint
func FuzzDecode(f *testing.F) {
	seeds := fuzzSeeds(f)
	for _, blob := range seeds {
		f.Add(blob)
	}
	// TestDecodeRejectsCorruptBlobs' cases, cut from a real snapshot.
	blob := seeds[len(seeds)-1]
	f.Add([]byte{})
	f.Add(blob[:3])
	f.Add(append([]byte("NOPE"), blob[4:]...))
	f.Add(blob[:len(blob)-5])
	f.Add(append(bytes.Clone(blob), 0, 0, 0, 0, 0, 0, 0, 0))
	badVersion := bytes.Clone(blob)
	badVersion[4] = 99
	f.Add(badVersion)
	hugeCount := bytes.Clone(blob)
	for i := 4 + 8*5; i < 4+8*6; i++ {
		hugeCount[i] = 0x7f
	}
	f.Add(hugeCount)

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := checkpoint.Decode(data)
		runtime.ReadMemStats(&after)
		// Every count is bounded by the bytes that remain, and the widest
		// element a count can ask for is 32 bytes per 8 of input; nesting
		// (rows, slots, values) can stack three such requests.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(10*len(data)+16<<10); grew > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), grew, limit)
		}
		if err != nil {
			return
		}
		if again := checkpoint.Encode(s); !bytes.Equal(again, data) {
			t.Fatalf("accepted blob is not canonical: %d bytes in, %d bytes re-encoded", len(data), len(again))
		}
		if n := checkpoint.Size(s); n != len(data) {
			t.Fatalf("Size = %d for a %d-byte blob", n, len(data))
		}
	})
}
