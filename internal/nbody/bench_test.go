package nbody

import "testing"

// BenchmarkComputeKernel measures one direct-sum force evaluation and
// timestep of rank 0's half of 512 particles — the repository benchmark's
// nbody-misspec shape, and the f_comp the engine charges per iteration.
func BenchmarkComputeKernel(b *testing.B) {
	const n, P, pid = 512, 2, 0
	blocks := SplitParticles(UniformSphere(n, 1), []int{n / P, n / P})
	view := make([][]float64, P)
	for k := range view {
		view[k] = Encode(blocks[k])
	}
	app := NewApp(DefaultSim(), blocks[pid], n, pid, 1e-4, nil)
	app.Compute(view, 0) // allocate the scratch outside the timed loop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view[pid] = app.Compute(view, i)
	}
}
