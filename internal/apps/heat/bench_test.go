package heat

import (
	"fmt"
	"testing"
)

// BenchmarkComputeKernel measures one explicit diffusion step of one
// processor's row block — the f_comp the engine charges per iteration — at
// a cache-resident toy shape (a middle 16×64 strip, 8 KB) and at the
// repository benchmark's kernel-heat shape (rank 0's 512×512 strip of a
// 1024×512 grid: 2 MB read and 2 MB written per step, which fits a server's
// last-level cache; the step is bound by arithmetic, not memory bandwidth,
// as the vector kernel's 1.5–2× lead over the Go loop at this shape shows).
// Each shape runs twice: with the vector row kernel where the CPU has one,
// and as <shape>/go with the portable loop alone.
func BenchmarkComputeKernel(b *testing.B) {
	for _, sh := range []struct{ rows, cols, p, pid int }{
		{64, 64, 4, 1},
		{1024, 512, 2, 0},
	} {
		for _, loop := range []struct {
			suffix string
			vector bool
		}{{"", vector}, {"/go", false}} {
			b.Run(fmt.Sprintf("%dx%d%s", sh.rows/sh.p, sh.cols, loop.suffix), func(b *testing.B) {
				defer func(was bool) { vector = was }(vector)
				vector = loop.vector
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
}
