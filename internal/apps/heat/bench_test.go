package heat

import (
	"fmt"
	"testing"
)

// BenchmarkComputeKernel measures one explicit diffusion step of one
// processor's row block — the f_comp the engine charges per iteration — at
// a cache-resident toy shape (a middle 16×64 strip, 8 KB) and at the
// repository benchmark's kernel-heat shape (rank 0's 512×512 strip of a
// 1024×512 grid, 2 MB: memory-bound, as the live run is).
func BenchmarkComputeKernel(b *testing.B) {
	for _, sh := range []struct{ rows, cols, p, pid int }{
		{64, 64, 4, 1},
		{1024, 512, 2, 0},
	} {
		b.Run(fmt.Sprintf("%dx%d", sh.rows/sh.p, sh.cols), func(b *testing.B) {
			g := DefaultGrid(sh.rows, sh.cols)
			blocks := make([][2]int, sh.p)
			for i := range blocks {
				blocks[i] = [2]int{i * g.Rows / sh.p, (i + 1) * g.Rows / sh.p}
			}
			view := make([][]float64, sh.p)
			var app *App
			for k := range view {
				a := NewApp(g, blocks, k, 1e-3)
				view[k] = a.InitLocal()
				if k == sh.pid {
					app = a
				} else {
					view[k] = a.Publish(view[k])
				}
			}
			app.Compute(view, 0) // allocate the result buffers outside the timed loop
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				view[sh.pid] = app.Compute(view, i)
			}
		})
	}
}
