package cluster

import "fmt"

// LinearMachines builds p machines whose capacities vary linearly from
// fastest down to fastest/ratio — the §4 model instantiation where the
// fastest processor P1 is `ratio` (10×) faster than the slowest P16. The
// machines are ordered fastest first, matching the paper's ordered set P.
//
// For p == 1 the single machine has the fastest capacity.
func LinearMachines(p int, fastest, ratio float64) []Machine {
	if p <= 0 {
		panic("cluster: p must be positive")
	}
	if fastest <= 0 || ratio < 1 {
		panic("cluster: fastest must be > 0 and ratio >= 1")
	}
	ms := make([]Machine, p)
	slowest := fastest / ratio
	for i := range ms {
		f := 0.0
		if p > 1 {
			f = float64(i) / float64(p-1)
		}
		ms[i] = Machine{
			Name: fmt.Sprintf("ws%02d", i+1),
			Ops:  fastest - f*(fastest-slowest),
		}
	}
	return ms
}

// UniformMachines builds p identical machines of the given capacity.
func UniformMachines(p int, ops float64) []Machine {
	if p <= 0 {
		panic("cluster: p must be positive")
	}
	ms := make([]Machine, p)
	for i := range ms {
		ms[i] = Machine{Name: fmt.Sprintf("ws%02d", i+1), Ops: ops}
	}
	return ms
}

// TotalOps returns the aggregate capacity Σ M_i of the machine set.
func TotalOps(ms []Machine) float64 {
	var sum float64
	for _, m := range ms {
		sum += m.Ops
	}
	return sum
}

// Capacities returns each machine's capacity M_i, in order: the weights
// partition.Blocks splits variables by.
func Capacities(ms []Machine) []float64 {
	caps := make([]float64, len(ms))
	for i, m := range ms {
		caps[i] = m.Ops
	}
	return caps
}
