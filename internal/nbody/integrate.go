package nbody

// Step advances particles one timestep with symplectic (semi-implicit)
// Euler: v(t+1) = v(t) + a(t)·Δt, then r(t+1) = r(t) + v(t+1)·Δt. acc must
// hold the acceleration on each particle at time t. The input slice is not
// modified; the advanced particles are returned.
func (s Sim) Step(ps []Particle, acc []Vec3) []Particle {
	return s.stepInto(nil, ps, acc)
}

// stepInto is Step reusing out's backing array when it is large enough; out
// must not alias ps.
func (s Sim) stepInto(out, ps []Particle, acc []Vec3) []Particle {
	out = resize(out, len(ps))
	for i, p := range ps {
		v := p.Vel.Add(acc[i].Scale(s.Dt))
		out[i] = Particle{
			Mass: p.Mass,
			Vel:  v,
			Pos:  p.Pos.Add(v.Scale(s.Dt)),
		}
	}
	return out
}

// StepAll advances a whole particle set one timestep using exact
// all-pairs forces — the serial reference implementation.
func (s Sim) StepAll(ps []Particle) []Particle {
	return s.Step(ps, s.AccelOn(ps, ps))
}

// Evolve runs the serial reference simulation for iters timesteps.
func (s Sim) Evolve(ps []Particle, iters int) []Particle {
	cur := ps
	for t := 0; t < iters; t++ {
		cur = s.StepAll(cur)
	}
	return cur
}
