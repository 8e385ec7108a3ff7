package core

// The engine's side of the checkpoint path: a snapshot is assembled in
// engine-owned scratch and encoded into one engine-owned buffer, which the
// store only borrows (checkpoint.Store). These tests pin what that buys
// (zero allocations per steady-state checkpoint), what it must not cost (a
// store that obeys the rule sees every snapshot intact) and the ring bound
// a tenant-supplied CheckpointEvery used to escape.

import (
	"bytes"
	"math"
	"testing"

	"specomp/internal/checkpoint"
	"specomp/internal/faults"
	"specomp/internal/obs"
)

// TestTakeCheckpointZeroAlloc: once the scratch snapshot and the encode
// buffer have been sized by a first checkpoint, taking another allocates
// nothing — with pending predictions in the plane and a full rejoin log.
func TestTakeCheckpointZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	e := midRunEngine(t, 24*32, 2*32, 2, 80, discardStore{})
	if pending := len(e.buildSnapshot().Preds); pending == 0 || e.sentLog.Len() != e.cfg.RejoinLog {
		t.Fatalf("engine not frozen mid-run: %d pending prediction rows, rejoin log %d/%d",
			pending, e.sentLog.Len(), e.cfg.RejoinLog)
	}
	e.takeCheckpoint()
	if n := testing.AllocsPerRun(100, e.takeCheckpoint); n != 0 {
		t.Errorf("steady-state takeCheckpoint allocates %v times per call, want 0", n)
	}
}

// aliasStore obeys the borrow rule — it copies every blob before Save
// returns — and also breaks it, keeping the slice it was handed, so a test
// can compare what each would have been left with.
type aliasStore struct {
	*checkpoint.MemStore
	copies, aliases map[int][][]byte
}

func (s *aliasStore) Save(proc int, blob []byte) {
	s.MemStore.Save(proc, blob)
	s.copies[proc] = append(s.copies[proc], bytes.Clone(blob))
	s.aliases[proc] = append(s.aliases[proc], blob)
}

// TestEngineBufferReuseInvisibleToAStoreThatCopies: over a run with ten
// checkpoints per processor, every copy taken inside Save decodes to its own
// snapshot (Validated strictly increasing), while the kept aliases show the
// reuse is real — they no longer all hold what they held when handed over.
func TestEngineBufferReuseInvisibleToAStoreThatCopies(t *testing.T) {
	const P = 4
	st := &aliasStore{MemStore: checkpoint.NewMemStore(), copies: map[int][][]byte{}, aliases: map[int][][]byte{}}
	cfg := recoveryConfig(st)
	cfg.MaxIter = 50
	runCoupled(t, reliableCluster(P), cfg, 0.02)
	for p := 0; p < P; p++ {
		if len(st.copies[p]) != 10 {
			t.Fatalf("proc %d took %d checkpoints, want 10", p, len(st.copies[p]))
		}
		last, overwritten := -1, 0
		for i, blob := range st.copies[p] {
			s, err := checkpoint.Decode(blob)
			if err != nil {
				t.Fatalf("proc %d checkpoint %d: %v", p, i, err)
			}
			if s.Proc != p || s.Validated <= last {
				t.Errorf("proc %d checkpoint %d decodes to proc %d validated %d after %d", p, i, s.Proc, s.Validated, last)
			}
			last = s.Validated
			if !bytes.Equal(st.aliases[p][i], blob) {
				overwritten++
			}
		}
		if overwritten == 0 {
			t.Errorf("proc %d: every kept alias still reads as handed over — the engine is not reusing its buffer", p)
		}
	}
}

// peerRingCap runs a short phantom engine under cfg and reports the width
// of its stash lanes' rings.
func peerRingCap(t *testing.T, cfg Config) int {
	t.Helper()
	width := 0
	testRetireHook = func(e *engine, _ int) { width = e.plane.peers[0].ring.Cap() }
	defer func() { testRetireHook = nil }()
	cfg.FW, cfg.MaxIter = 2, 8
	if _, err := Run(newPhantom(2, 4), newBenchApp(4), cfg); err != nil {
		t.Fatal(err)
	}
	return width
}

// TestPeerRingIgnoresCheckpointEveryBeyondRejoinLog: CheckpointEvery is
// tenant-supplied; past RejoinLog it no longer widens the stash rings
// (1e9 used to ask for a 40 GB ring per in-edge), below it the width is what
// it always was, and without checkpointing nothing changed at all.
func TestPeerRingIgnoresCheckpointEveryBeyondRejoinLog(t *testing.T) {
	at := func(every, rejoinLog int) int {
		return peerRingCap(t, Config{CheckpointEvery: every, RejoinLog: rejoinLog, CheckpointStore: discardStore{}})
	}
	off := peerRingCap(t, Config{})
	if got := at(5, 0); got != off+5 {
		t.Errorf("CheckpointEvery 5: ring %d, want %d (unchanged below RejoinLog)", got, off+5)
	}
	capped := at(64, 0) // RejoinLog defaults to 64
	if capped != off+64 {
		t.Errorf("CheckpointEvery 64: ring %d, want %d", capped, off+64)
	}
	for _, every := range []int{65, 100_000, 1_000_000_000} {
		if got := at(every, 0); got != capped {
			t.Errorf("CheckpointEvery %d: ring %d, want %d (capped at RejoinLog)", every, got, capped)
		}
	}
	if got := at(1_000_000_000, 8); got != off+8 {
		t.Errorf("CheckpointEvery 1e9, RejoinLog 8: ring %d, want %d", got, off+8)
	}
}

// TestRecoveryUnchangedWhenCheckpointEveryExceedsRejoinLog replays
// recover_test.go's two-crash schedule with checkpoints further apart than
// the rejoin log is deep — the one configuration whose rings the cap
// narrowed — and requires the outcome recorded on the commit before the cap:
// same final values to the bit, same recovery counters.
func TestRecoveryUnchangedWhenCheckpointEveryExceedsRejoinLog(t *testing.T) {
	const P = 4
	mk := func() Config {
		cfg := recoveryConfig(checkpoint.NewMemStore())
		cfg.CheckpointEvery, cfg.RejoinLog = 10, 4
		return cfg
	}
	T := TotalTime(runCoupled(t, reliableCluster(P), mk(), 0.02))
	cc := reliableCluster(P)
	cc.Crashes = faults.CrashSchedule{
		{Proc: 1, At: 0.25 * T, Downtime: 0.06 * T},
		{Proc: 3, At: 0.55 * T, Downtime: 0.06 * T},
	}
	results := runCoupled(t, cc, mk(), 0.02)
	agg := Aggregate(results)
	got := [7]uint64{finalsHash(results), uint64(agg.Restores), uint64(agg.Checkpoints), uint64(agg.SpecsMade),
		uint64(agg.SpecsBad), uint64(agg.Repairs), uint64(agg.CatchupIters)}
	// Finals, restores, checkpoints and catch-up as recorded at 2bd80f5. The
	// cascade's input rule (a recompute uses every actual that has arrived)
	// moved the three speculation counts from 481 / 132 / 52: fewer bad
	// checks and repairs, a few more predictions made. RelErrCheck failing a
	// NaN moved them again, from 487 / 117 / 45: the map overflows here, and a
	// −Inf guess for a −Inf actual (difference NaN) used to pass. Clamping its
	// bound moved bad checks and repairs from 355 / 169: a finite guess for a
	// −Inf actual (error +Inf against the bound 0.02·∞) used to pass too.
	want := [7]uint64{2228081188715380101, 2, 21, 448, 362, 172, 2}
	if got != want {
		t.Errorf("outcome {finals hash, restores, checkpoints, specs made, specs bad, repairs, catch-up iters} = %v, want %v", got, want)
	}
}

// TestCheckpointSecondsHistogram: the engine times every checkpoint on the
// transport's clock. On the simulator that is the modelled charge — 50 ops
// on a 1000 ops/s machine, 0.05 s each, whatever the host is doing — so the
// family has one observation per checkpoint, a sum that is exact, and a
// seeded run dumps it identically twice.
func TestCheckpointSecondsHistogram(t *testing.T) {
	dump := func() (string, int, map[string]float64) {
		reg := obs.NewRegistry()
		cfg := recoveryConfig(checkpoint.NewMemStore())
		cfg.Metrics = reg
		results := runCoupled(t, reliableCluster(4), cfg, 0.02)
		var b bytes.Buffer
		if err := reg.WriteProm(&b); err != nil {
			t.Fatal(err)
		}
		return b.String(), Aggregate(results).Checkpoints, reg.Totals()
	}
	first, checkpoints, totals := dump()
	if again, _, _ := dump(); again != first {
		t.Error("two seeded runs dump different metrics")
	}
	if got := int(totals[MetricCheckpointSec+"_count"]); got != checkpoints || got == 0 {
		t.Errorf("%s_count = %d, want one per checkpoint (%d)", MetricCheckpointSec, got, checkpoints)
	}
	if got, want := totals[MetricCheckpointSec+"_sum"], 0.05*float64(checkpoints); math.Abs(got-want) > 1e-9 {
		t.Errorf("%s_sum = %g, want %g (the modelled CheckpointOps charge)", MetricCheckpointSec, got, want)
	}
}
