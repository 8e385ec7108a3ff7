package distnet

// End-to-end pipeline (task-DAG) runs over the real socket transport: one
// stage per OS-visible rank, the chain dependency graph projected through
// the spec's stage placement, validated against the lockstep serial
// reference. The exact regime (zero tolerances, FW=1) must be bit-identical
// to Serial even with per-edge faults on the send path, because every
// broadcast is validated or repaired before it is sent.

import (
	"testing"
	"time"

	"specomp/internal/faults"
	"specomp/internal/netmodel"
	"specomp/internal/obs"
)

// TestFourNodePipelineExactUnderEdgeFaults: a 4-stage pipeline across 4
// nodes with seeded faults (duplicates + delay spikes — loss-free, so no
// iteration starves) scoped to the first two DAG edges only, with repair
// activity visible in the shipped journals.
func TestFourNodePipelineExactUnderEdgeFaults(t *testing.T) {
	spec := RunSpec{App: "pipeline", Procs: 4, MaxIter: 50, FW: 1,
		Width: 8, Seed: 11, Exact: true, Trace: true}
	coord, err := NewCoordinator(CoordConfig{Spec: spec, Timeout: 2 * time.Minute, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	spec = coord.Spec()

	model := faults.EdgeFaults{
		Clean: netmodel.Fixed{D: 0.0002},
		Faulty: faults.Duplicate{
			Prob: 0.25,
			Inner: faults.DelaySpikes{
				Prob: 0.3, ExtraMin: 0.01, ExtraMax: 0.03,
				Inner: netmodel.Fixed{D: 0.0002},
			},
		},
		Edges: []faults.Edge{{From: 0, To: 1}, {From: 1, To: 2}},
	}
	launchNodes(t, spec.Procs, func(rank int) NodeConfig {
		return NodeConfig{Coord: coord.Addr(), Faults: model, FaultSeed: int64(7 + rank)}
	})
	reports, err := coord.Wait()
	if err != nil {
		t.Fatal(err)
	}

	// Bit-exact against the serial reference despite speculation and faults.
	if err := VerifyPipeline(spec, reports, 0); err != nil {
		t.Error(err)
	}

	// The cheap downstream stages must have speculated on upstream rows and
	// repaired every imperfect prediction (zero tolerance). Which rank finds
	// the gap is timing (a receiver that looks late finds a prompt row
	// arrived), so the counts are asserted over the fleet; the spikes are
	// tens of milliseconds so that some row is still in flight however late
	// a loaded box schedules the receiver.
	specs, repairs := 0, 0
	for _, rep := range reports {
		specs += rep.SpecsMade
		repairs += rep.Repairs
	}
	if specs == 0 || repairs == 0 {
		t.Fatalf("exact pipeline made %d speculations, %d repairs; want both > 0", specs, repairs)
	}

	// Repair cascades are visible in the shipped cross-process journals, one
	// event per counted repair.
	journals := FleetJournals(reports)
	if len(journals) != spec.Procs {
		t.Fatalf("only %d/%d nodes shipped a journal", len(journals), spec.Procs)
	}
	repairEvents := 0
	for _, j := range journals {
		for _, ev := range j.Events {
			if ev.Kind == obs.EvRepair {
				repairEvents++
			}
		}
	}
	if repairEvents == 0 {
		t.Error("no repair events in any node journal")
	}
	if repairEvents != repairs {
		t.Errorf("%d repair events in the node journals, %d repairs in the reports", repairEvents, repairs)
	}
}

// TestPipelinePlacementDistnet: a permuted stage placement travels in the
// spec, every node derives the identical rank-level graph, and the finals
// land on the placed ranks — still bit-exact.
func TestPipelinePlacementDistnet(t *testing.T) {
	spec := RunSpec{App: "pipeline", Procs: 3, MaxIter: 40, FW: 1,
		Width: 8, Seed: 5, Exact: true, Placement: []int{2, 0, 1}}
	coord, err := NewCoordinator(CoordConfig{Spec: spec, Timeout: time.Minute, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	spec = coord.Spec()

	// Seeded delay spikes let later frames overtake earlier ones, which is
	// what opens the history gaps downstream stages speculate across; a
	// uniform delay only shifts every arrival together and the engine
	// blocks at startup instead.
	spikes := faults.DelaySpikes{
		Prob: 0.3, ExtraMin: 0.001, ExtraMax: 0.004,
		Inner: netmodel.Fixed{D: 0.0002},
	}
	launchNodes(t, spec.Procs, func(rank int) NodeConfig {
		return NodeConfig{Coord: coord.Addr(), Faults: spikes, FaultSeed: int64(3 + rank)}
	})
	reports, err := coord.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyPipeline(spec, reports, 0); err != nil {
		t.Error(err)
	}
	// The source stage sits on rank 2 under this placement; it has no
	// in-edges, so it must not speculate. Whether its downstream (rank 0)
	// does is a loopback race — the source streams every iteration ahead,
	// and a receiver that looks late finds them all arrived — so here it is
	// only observed; pipeline's TestPlacementPermuted asserts it in virtual
	// time on the same placement.
	for _, rep := range reports {
		switch rep.Rank {
		case 2:
			if rep.SpecsMade != 0 {
				t.Errorf("source rank 2 made %d speculations, want 0", rep.SpecsMade)
			}
		case 0:
			t.Logf("rank 0 (stage 1) made %d speculations on the source", rep.SpecsMade)
		}
	}
}

// TestPipelineSpecValidation pins the Normalize contract for the new app
// kind: bad placements and degenerate shapes fail before the spec ships.
func TestPipelineSpecValidation(t *testing.T) {
	good := RunSpec{App: "pipeline", Procs: 3}
	if err := good.Normalize(); err != nil {
		t.Fatalf("minimal pipeline spec rejected: %v", err)
	}
	if good.Width != 16 {
		t.Errorf("width defaulted to %d, want 16", good.Width)
	}

	cases := map[string]RunSpec{
		"one proc":         {App: "pipeline", Procs: 1},
		"short placement":  {App: "pipeline", Procs: 3, Placement: []int{0, 1}},
		"non-permutation":  {App: "pipeline", Procs: 3, Placement: []int{0, 0, 1}},
		"out of range":     {App: "pipeline", Procs: 3, Placement: []int{0, 1, 5}},
		"row over a frame": {App: "pipeline", Procs: 3, Width: MaxFrame/8 + 1},
	}
	for name, spec := range cases {
		spec := spec
		if err := spec.Normalize(); err == nil {
			t.Errorf("%s: Normalize accepted an invalid pipeline spec", name)
		}
	}
}
