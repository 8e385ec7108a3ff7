package experiments

import (
	"errors"
	"strings"
	"testing"

	"specomp/internal/apps/jacobi"
	"specomp/internal/checkpoint"
	"specomp/internal/cluster"
	"specomp/internal/core"
	"specomp/internal/faults"
	"specomp/internal/netmodel"
	"specomp/internal/partition"
	"specomp/internal/simtime"
)

func TestExtChaosAllAppsRecover(t *testing.T) {
	rep, err := ExtChaos(QuickNBody())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failures) > 0 {
		t.Fatalf("chaos soak reported failures:\n%s", strings.Join(rep.Failures, "\n"))
	}
	// One decay series per application, values inside [0, 1].
	for _, name := range []string{"heat", "jacobi", "pagerank", "sor", "nbody"} {
		s := rep.SeriesByName(name)
		if s == nil || len(s.Y) == 0 {
			t.Errorf("missing post-crash decay series for %s", name)
			continue
		}
		for i, v := range s.Y {
			if v < 0 || v > 1 {
				t.Errorf("%s decay[%d] = %g outside [0, 1]", name, i, v)
			}
		}
	}
	if !strings.Contains(rep.CSV(), "nbody") {
		t.Error("CSV export missing the decay columns")
	}
	// Every per-app line carries the crash accounting the harness promises.
	rows := 0
	for _, l := range rep.Lines {
		for _, name := range []string{"heat", "jacobi", "pagerank", "sor", "nbody"} {
			if strings.HasPrefix(l, name) {
				rows++
			}
		}
	}
	if rows != 5 {
		t.Errorf("expected 5 application rows, got %d:\n%s", rows, strings.Join(rep.Lines, "\n"))
	}
}

// TestGiveUpDegradesNotDeadlocks pins the graceful-degradation contract of
// the reliable layer's bounded retries: a partition long enough to exhaust
// MaxRetries makes senders abandon messages (GiveUps > 0), and the engine
// rides it out — overrunning the forward window on speculation and healing
// the abandoned payloads through the rejoin/refill path — instead of
// deadlocking on a message that will never be retransmitted again.
func TestGiveUpDegradesNotDeadlocks(t *testing.T) {
	prob := jacobi.NewDiagonallyDominant(120, 7)
	machines := cluster.LinearMachines(6, 20_000, 5)
	blocks := partition.Blocks(prob.N, cluster.Capacities(machines))
	run := func(net netmodel.Model) ([]core.Result, error) {
		return core.RunCluster(
			cluster.Config{Machines: machines, Net: net, Reliable: true,
				RetryTimeout: 0.5, MaxRetries: 3, Horizon: 600},
			core.Config{FW: 1, MaxIter: 40, Deadline: 2, MaxOverrun: 4,
				CheckpointEvery: 5, CheckpointStore: checkpoint.NewMemStore()},
			func(p *cluster.Proc) core.App { return jacobi.NewApp(prob, blocks, p.ID(), 1e-4) })
	}
	base, err := run(netmodel.Fixed{D: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	T := core.TotalTime(base)

	// Processor 2 straggles (its acks and data crawl), then a hard partition
	// cuts its outbound entirely: peers' retransmissions toward it go
	// unacknowledged and are abandoned, and its own data must be refilled.
	faulty := faults.Partition{
		Inner: faults.Straggler{
			Inner: netmodel.Fixed{D: 0.4},
			Proc:  2, From: 0.25 * T, Until: 0.35 * T, Extra: 3,
		},
		Src: 2, Dst: -1, From: 0.35 * T, Until: 0.55 * T,
	}
	results, err := run(faulty)
	if errors.Is(err, simtime.ErrDeadlock) || errors.Is(err, simtime.ErrHorizon) {
		t.Fatalf("run deadlocked instead of degrading: %v", err)
	}
	if err != nil {
		t.Fatal(err)
	}
	agg := core.Aggregate(results)
	if agg.GiveUps == 0 {
		t.Error("partition did not exhaust MaxRetries: GiveUps = 0")
	}
	if agg.Overruns == 0 {
		t.Error("engine never overran the forward window: degradation path unused")
	}
	if d := core.MaxAbsErr(flatFinals(results), flatFinals(base)); d > 1e-6 {
		t.Errorf("degraded run diverged from fault-free baseline: maxerr %g", d)
	}
}
