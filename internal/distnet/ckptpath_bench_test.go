package distnet

import (
	"sync"
	"testing"
	"time"
)

// BenchmarkCheckpointPath measures the whole checkpoint path on a live
// in-process fleet: a real coordinator with memory custody and two RunNode
// ranks over loopback TCP, checkpointing every iteration. One op is one
// round — both engines take a checkpoint (takeCheckpoint → coordStore →
// link writer → socket) and the coordinator accepts both into its custody
// cells — beside the iteration's own edge exchange, which is what a round
// costs a job; mesh set-up and teardown are amortised over b.N. The shapes
// are svc-jobs' (heat 48×32, FW 2) and kernel-heat's (heat 1024×512). The
// file uses nothing newer than RunNode and NewCoordinator, so it also builds
// against older trees — how the parent figures in EXPERIMENTS.md were taken.
func BenchmarkCheckpointPath(b *testing.B) {
	for _, sh := range []struct {
		name           string
		rows, cols, fw int
	}{
		{"heat48x32-P2-FW2", 48, 32, 2},
		{"heat1024x512-P2", 1024, 512, 0},
	} {
		b.Run(sh.name, func(b *testing.B) {
			spec := RunSpec{App: "heat", Procs: 2, Rows: sh.rows, Cols: sh.cols, FW: sh.fw,
				MaxIter: b.N, CheckpointEvery: 1, Theta: 1e-3}
			coord, err := NewCoordinator(CoordConfig{Spec: spec, Timeout: 10 * time.Minute})
			if err != nil {
				b.Fatal(err)
			}
			defer coord.Close()
			b.ResetTimer()
			var wg sync.WaitGroup
			errs := make([]error, spec.Procs)
			for i := range errs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					_, errs[i] = RunNode(NodeConfig{Coord: coord.Addr()})
				}(i)
			}
			_, waitErr := coord.Wait()
			wg.Wait()
			b.StopTimer()
			for _, err := range append(errs, waitErr) {
				if err != nil {
					b.Fatal(err)
				}
			}
			if got, want := coord.Stats().CustodySaves, spec.Procs*b.N; got != want {
				b.Fatalf("custody accepted %d checkpoints, want %d", got, want)
			}
			perRound := 0 // what one op moves once the rejoin logs are full
			for r := 0; r < spec.Procs; r++ {
				blob, _ := coord.Checkpoint(r)
				perRound += len(blob)
			}
			b.ReportMetric(float64(perRound), "snapshot-B/op")
		})
	}
}
