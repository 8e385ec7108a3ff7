package core

// The lent slot (ComputerInto): an app that computes into the value plane's
// slot must produce the run an app returning its result does — same finals to
// the bit, same statistics, same journal — on every path that writes
// X_j(t+1): the main loop, repairs (by recompute and by Corrector), cascades
// and a crash restored from a checkpoint.

import (
	"bytes"
	"math"
	"testing"
	"unsafe"

	"specomp/internal/checkpoint"
	"specomp/internal/cluster"
	"specomp/internal/faults"
	"specomp/internal/obs"
)

// overlaps reports whether two slices share any element.
func overlaps(a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	a0, b0 := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&b[0]))
	return a0 < b0+uintptr(len(b))*8 && b0 < a0+uintptr(len(a))*8
}

// lentMap is coupledMap computing into the engine's slot. Every call checks
// the lending contract: dst is as long as X_j(t) and overlaps no view entry.
type lentMap struct {
	coupledMap
	t *testing.T
}

func (a *lentMap) ComputeInto(dst []float64, view [][]float64, t int) {
	if len(dst) != len(view[a.p.ID()]) {
		a.t.Errorf("proc %d iter %d: dst has %d values, X_j(t) %d", a.p.ID(), t, len(dst), len(view[a.p.ID()]))
	}
	for k, v := range view {
		if overlaps(dst, v) {
			a.t.Errorf("proc %d iter %d: dst overlaps view[%d]", a.p.ID(), t, k)
		}
	}
	copy(dst, a.coupledMap.Compute(view, t))
}

// correctedMap adds a Corrector: the mean term's share of the failed peer is
// swapped from the predicted to the actual value. It is not exact, only
// deterministic — what matters here is that the engine copies its result into
// the slot Computed lives in.
type correctedMap struct{ lentMap }

func (a *correctedMap) Correct(computed, local []float64, peer int, pred, act []float64, t int) []float64 {
	return []float64{computed[0] + a.eps*(a.f(act[0])-a.f(pred[0]))/float64(a.p.P())}
}

func TestLentSlotRunEqualsCopiedRun(t *testing.T) {
	const P = 4
	var repairs, redos, restores int
	for _, fw := range []int{0, 1, 2} {
		for _, corr := range []bool{false, true} {
			run := func(lend bool) ([]Result, []byte) {
				jr := obs.NewJournal()
				cc := reliableCluster(P)
				cc.Journal = jr
				cc.Crashes = faults.CrashSchedule{{Proc: 2, At: 8, Downtime: 2}}
				cfg := recoveryConfig(checkpoint.NewMemStore())
				cfg.FW, cfg.Journal = fw, jr
				results, err := RunCluster(cc, cfg, func(p *cluster.Proc) App {
					m := lentMap{coupledMap{p: p, r: 3.2, eps: 0.3, threshold: 0.002, computeOp: 500, repairOp: 250}, t}
					var app interface {
						App
						ComputerInto
					} = &m
					if corr {
						app = &correctedMap{m}
					}
					switch {
					case lend:
						return app
					case corr:
						return struct {
							App
							Corrector
						}{app, app.(Corrector)}
					default:
						return struct{ App }{app}
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				var b bytes.Buffer
				if err := jr.WriteJSONL(&b); err != nil {
					t.Fatal(err)
				}
				return results, b.Bytes()
			}
			lent, lentJournal := run(true)
			copied, copiedJournal := run(false)
			for j := range lent {
				if lent[j].Stats != copied[j].Stats {
					t.Errorf("FW=%d corrector=%v proc %d: stats differ\nlent   %+v\ncopied %+v", fw, corr, j, lent[j].Stats, copied[j].Stats)
				}
				a, b := lent[j].Final, copied[j].Final
				if len(a) != len(b) || math.Float64bits(a[0]) != math.Float64bits(b[0]) {
					t.Errorf("FW=%d corrector=%v proc %d: final %v lent, %v copied", fw, corr, j, a, b)
				}
			}
			if !bytes.Equal(lentJournal, copiedJournal) {
				t.Errorf("FW=%d corrector=%v: journals differ (%d vs %d bytes)", fw, corr, len(lentJournal), len(copiedJournal))
			}
			agg := Aggregate(lent)
			repairs += agg.Repairs
			redos += agg.CascadeRedos
			restores += agg.Restores
		}
	}
	if repairs == 0 || redos == 0 || restores == 0 {
		t.Errorf("the runs did not exercise every path: %d repairs, %d cascade redos, %d restores", repairs, redos, restores)
	}
	t.Logf("%d repairs, %d cascade redos, %d restores", repairs, redos, restores)
}
