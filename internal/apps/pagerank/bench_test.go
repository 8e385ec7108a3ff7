package pagerank

import (
	"testing"

	"specomp/internal/core"
	"specomp/internal/partition"
)

// BenchmarkComputeKernel measures one power-iteration step of a middle
// processor's vertex block — the f_comp the engine charges per iteration.
func BenchmarkComputeKernel(b *testing.B) {
	const P, pid = 4, 1
	prob := NewProblem(NewRandomGraph(512, 8, 1), 0.85)
	blocks := partition.Blocks(prob.G.N, []float64{1, 1, 1, 1})
	apps := make([]*App, P)
	for k := range apps {
		apps[k] = NewApp(prob, blocks, k, 1e-3)
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
