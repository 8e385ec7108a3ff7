package nbody

import "testing"

// kernelBench sets up the repository benchmark's nbody-misspec shape: rank
// 0's half of 512 particles, with its scratch allocated.
func kernelBench() (app *App, view [][]float64) {
	const n, P, pid = 512, 2, 0
	blocks := SplitParticles(UniformSphere(n, 1), []int{n / P, n / P})
	view = make([][]float64, P)
	for k := range view {
		view[k] = Encode(blocks[k])
	}
	app = NewApp(DefaultSim(), blocks[pid], n, pid, 1e-4, nil)
	app.Compute(view, 0)
	return app, view
}

// BenchmarkComputeKernel measures one direct-sum force evaluation and
// timestep of rank 0's half of 512 particles — the f_comp the engine charges
// per iteration.
func BenchmarkComputeKernel(b *testing.B) {
	app, view := kernelBench()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view[0] = app.Compute(view, i)
	}
}

// BenchmarkComputeKernelReference is BenchmarkComputeKernel with the
// one-target reference loop in accelInto's place, so one process reports the
// kernel and what it replaced.
func BenchmarkComputeKernelReference(b *testing.B) {
	app, view := kernelBench()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app.sources = app.sources[:0]
		for k, part := range view {
			app.sources = append(app.sources, app.decode(k, part))
		}
		local := app.sources[0]
		app.acc = app.sim.referenceAccel(app.acc, local, app.sources)
		app.next = app.sim.stepInto(app.next, local, app.acc)
		view[0] = encodeInto(app.out.Next(len(local)*Floats), app.next)
	}
}

// BenchmarkCheckEq11 measures one eq.-11 check of 256 remote against 256
// local particles at the benchmark's θ: a one-step eq.-10 prediction against
// the stepped actual.
func BenchmarkCheckEq11(b *testing.B) {
	app, view := kernelBench()
	pred := make([]float64, len(view[1]))
	app.SpeculateInto(pred, 1, view[1:], 1)
	all := append(Decode(view[0]), Decode(view[1])...)
	actual := Encode(app.sim.StepAll(all)[len(all)/2:])
	app.Check(1, pred, actual, view[0], 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := app.Check(1, pred, actual, view[0], i); res.Total != 256*256 {
			b.Fatal(res)
		}
	}
}
