package checkpoint_test

// Benchmarks (and, in fuzz_test.go, the decoder's fuzz target) on snapshots
// as the engine really writes them. They live in the external test package
// because internal/core imports internal/checkpoint. This file uses nothing
// newer than Encode and Decode, so it also builds against older trees — how
// the parent figures in EXPERIMENTS.md were taken.

import (
	"bytes"
	"testing"

	"specomp/internal/apps/heat"
	"specomp/internal/checkpoint"
	"specomp/internal/cluster"
	"specomp/internal/core"
	"specomp/internal/faults"
	"specomp/internal/netmodel"
)

// keepAll is a MemStore that also keeps a copy of every blob saved.
type keepAll struct {
	*checkpoint.MemStore
	blobs [][]byte
}

func (k *keepAll) Save(proc int, blob []byte) {
	k.MemStore.Save(proc, blob)
	k.blobs = append(k.blobs, bytes.Clone(blob))
}

// engineBlobs runs heat rows×cols on p simulated processors under cfg
// (which names the windows and the checkpoint cadence) and the crash
// schedule, and returns every snapshot the engines saved, in save order.
func engineBlobs(tb testing.TB, rows, cols, p int, cfg core.Config, crashes faults.CrashSchedule) [][]byte {
	tb.Helper()
	store := &keepAll{MemStore: checkpoint.NewMemStore()}
	cfg.CheckpointStore = store
	blocks := make([][2]int, p)
	for i := range blocks {
		blocks[i] = [2]int{i * rows / p, (i + 1) * rows / p}
	}
	cc := cluster.Config{
		Machines: cluster.UniformMachines(p, 1e6), Net: netmodel.Fixed{D: 0.02},
		Reliable: true, RetryTimeout: 0.5, Crashes: crashes,
	}
	if _, err := core.RunCluster(cc, cfg, func(pr *cluster.Proc) core.App {
		return heat.NewApp(heat.DefaultGrid(rows, cols), blocks, pr.ID(), 1e-3)
	}); err != nil {
		tb.Fatal(err)
	}
	if len(store.blobs) == 0 {
		tb.Fatal("engine run saved no checkpoint")
	}
	return store.blobs
}

// lastSnapshot decodes the final blob of an engine run that checkpoints once,
// at its last iteration (rejoin log full, windows in steady state).
func lastSnapshot(tb testing.TB, rows, cols, p, fw int) *checkpoint.Snapshot {
	tb.Helper()
	blobs := engineBlobs(tb, rows, cols, p, core.Config{FW: fw, MaxIter: 70, CheckpointEvery: 70}, nil)
	s, err := checkpoint.Decode(blobs[len(blobs)-1])
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

var encodeSink []byte

// BenchmarkCheckpointEncode measures Encode — a fresh, exactly sized blob per
// call — on engine snapshots at the two shapes the repo benchmark
// checkpoints: svc-jobs' (heat 48×32, 2 ranks, FW 2: a 64-entry log of short
// broadcasts beside a few 768-value strips) and kernel-heat's (heat
// 1024×512, 2 ranks: two 2 MB strips). BenchmarkTakeCheckpoint in
// internal/core is the reused-buffer figure.
func BenchmarkCheckpointEncode(b *testing.B) {
	for _, sh := range []struct {
		name              string
		rows, cols, p, fw int
	}{
		{"heat48x32-P2-FW2", 48, 32, 2, 2},
		{"heat1024x512-P2", 1024, 512, 2, 0},
	} {
		b.Run(sh.name, func(b *testing.B) {
			s := lastSnapshot(b, sh.rows, sh.cols, sh.p, sh.fw)
			b.SetBytes(int64(len(checkpoint.Encode(s))))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				encodeSink = checkpoint.Encode(s)
			}
		})
	}
}
