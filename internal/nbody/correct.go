package nbody

import "specomp/internal/core"

// WithCorrection wraps App with the paper's incremental *correction
// function* (§3.1: "calls a correction function to correct its computation,
// or in some cases, recomputes"). Instead of recomputing the whole local
// partition when a message fails its check, only the pairs whose eq.-11
// ratio exceeded θ have their force contributions replaced: the speculated
// pair force is subtracted and the actual one added, then the symplectic-
// Euler update is patched in place (Δv = Δa·Δt, Δr = Δa·Δt²).
//
// Accepted pairs keep their (bounded) speculated forces — exactly the
// paper's semantics, and exactly what RepairOps(2·PairOps per bad pair)
// charges. With θ = 0 every pair is corrected and the result equals a full
// recomputation.
type WithCorrection struct{ *App }

var _ core.Corrector = WithCorrection{}

// Correct implements core.Corrector.
func (w WithCorrection) Correct(computed, local []float64, peer int, pred, act []float64, t int) []float64 {
	loc := w.decode(0, local)
	predP := w.decode(1, pred)
	actP := w.decode(2, act)
	out := w.decode(3, computed)
	dt := w.sim.Dt
	w.tol = resize(w.tol, len(actP))
	for i := range actP {
		w.tol[i] = newEq11(predP[i].Pos, actP[i].Pos, w.Theta)
	}
	for j := range loc {
		var da Vec3
		for i := range actP {
			if w.tol[i].accepts(actP[i].Pos.Sub(loc[j].Pos).Norm2()) {
				continue // accepted pair: its speculated force stands
			}
			da = da.Add(w.sim.PairAccel(loc[j].Pos, actP[i].Pos, actP[i].Mass))
			da = da.Sub(w.sim.PairAccel(loc[j].Pos, predP[i].Pos, predP[i].Mass))
		}
		out[j].Vel = out[j].Vel.Add(da.Scale(dt))
		out[j].Pos = out[j].Pos.Add(da.Scale(dt * dt))
	}
	return encodeInto(w.fix.Next(len(computed)), out)
}
