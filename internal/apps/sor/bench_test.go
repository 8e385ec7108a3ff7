package sor

import (
	"testing"

	"specomp/internal/core"
	"specomp/internal/partition"
)

// BenchmarkComputeKernel measures one red-black SOR sweep of a middle
// processor's row block — the f_comp the engine charges per iteration.
func BenchmarkComputeKernel(b *testing.B) {
	const P, pid = 4, 1
	g := DefaultGrid(64, 64)
	blocks := partition.Blocks(g.Rows, partition.Equal(P))
	apps := make([]*App, P)
	for k := range apps {
		apps[k] = NewApp(g, blocks, k, 1e-3)
	}
	view := make([][]float64, P)
	for k, a := range apps {
		loc := a.InitLocal()
		if k != pid {
			if pub, ok := any(a).(core.Publisher); ok {
				loc = pub.Publish(loc)
			}
		}
		view[k] = loc
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view[pid] = apps[pid].Compute(view, i)
	}
}
