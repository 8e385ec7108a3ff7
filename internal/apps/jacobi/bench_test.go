package jacobi

import (
	"testing"

	"specomp/internal/core"
	"specomp/internal/partition"
)

// BenchmarkComputeKernel measures one Jacobi sweep of a middle processor's
// partition — the f_comp the engine charges per iteration.
func BenchmarkComputeKernel(b *testing.B) {
	const P, pid = 4, 1
	prob := NewDiagonallyDominant(256, 1)
	blocks := partition.Blocks(prob.N, []float64{1, 1, 1, 1})
	apps := make([]*App, P)
	for k := range apps {
		apps[k] = NewApp(prob, blocks, k, 1e-3)
	}
	view := benchView(apps, pid)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view[pid] = apps[pid].Compute(view, i)
	}
}

// benchView assembles the global view exactly as the engine would: the
// local partition for pid, each peer's published payload otherwise.
func benchView(apps []*App, pid int) [][]float64 {
	view := make([][]float64, len(apps))
	for k, a := range apps {
		loc := a.InitLocal()
		if k == pid {
			view[k] = loc
			continue
		}
		if pub, ok := any(a).(core.Publisher); ok {
			loc = pub.Publish(loc)
		}
		view[k] = loc
	}
	return view
}
