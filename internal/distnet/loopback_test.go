package distnet

// Multi-process loopback smoke: a real coordinator in the test process and
// one real OS process per node (the test binary re-executed in helper
// mode), all over 127.0.0.1 — the closest a test gets to the deployment
// shape without a second machine.

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"testing"
	"time"

	"specomp/internal/apps/heat"
)

const (
	helperEnv = "SPECOMP_NODE_HELPER"
	coordEnv  = "SPECOMP_COORD_ADDR"
	epochEnv  = "SPECOMP_NODE_EPOCH"    // incarnation epoch (supervised respawns)
	hbEnv     = "SPECOMP_NODE_HB_TO_MS" // heartbeat staleness window, ms
)

// TestHelperSpecnode is not a test: it is the node-process body the
// loopback tests re-execute the test binary into. It does nothing unless
// the helper environment variable marks this process as a node.
func TestHelperSpecnode(t *testing.T) {
	if os.Getenv(helperEnv) != "1" {
		t.Skip("helper process body, not a test")
	}
	cfg := NodeConfig{
		Coord:    os.Getenv(coordEnv),
		HTTPAddr: "127.0.0.1:0",
	}
	if v := os.Getenv(epochEnv); v != "" {
		cfg.Epoch, _ = strconv.Atoi(v)
	}
	if v := os.Getenv(hbEnv); v != "" {
		ms, _ := strconv.Atoi(v)
		cfg.HeartbeatTimeout = time.Duration(ms) * time.Millisecond
	}
	res, err := RunNode(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "helper node (epoch %d): %v\n", cfg.Epoch, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "helper node rank %d (epoch %d) done after %v\n", res.Rank, cfg.Epoch, res.Wall)
	os.Exit(0)
}

// startHelperFleet starts cfg's run as a LocalFleet whose children are this
// test binary in node-helper mode, each launch stamped with its incarnation
// epoch. A spec with a Deadline (the crash runs) gets tight heartbeats, so
// survivors detect a victim well inside its downtime. The fleet is stopped
// when the test ends.
func startHelperFleet(t *testing.T, cfg CoordConfig) *LocalFleet {
	t.Helper()
	cfg.Logf = t.Logf
	f, err := StartLocal(cfg, SuperviseConfig{
		MaxRespawns: 3, Logf: t.Logf,
	}, func(coord string, slot, epoch int) (*exec.Cmd, error) {
		cmd := exec.Command(os.Args[0], "-test.run=^TestHelperSpecnode$", "-test.v")
		cmd.Env = append(os.Environ(), helperEnv+"=1", coordEnv+"="+coord, epochEnv+"="+strconv.Itoa(epoch))
		if cfg.Spec.Deadline > 0 {
			cmd.Env = append(cmd.Env, hbEnv+"=500")
		}
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		return cmd, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Stop)
	return f
}

func TestLoopbackHeatMultiProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke is not -short")
	}
	spec := RunSpec{App: "heat", Procs: 4, MaxIter: 50, FW: 2, Theta: 1e-3, Rows: 24, Cols: 16}
	fleet := startHelperFleet(t, CoordConfig{Spec: spec, Timeout: 2 * time.Minute})
	spec = fleet.Coordinator().Spec()
	reports, err, childErr := fleet.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if childErr != nil || fleet.Respawns() != 0 {
		t.Errorf("fault-free fleet: supervision latched %v after %d respawns", childErr, fleet.Respawns())
	}

	// Convergence must match the serial reference within the speculation
	// tolerance — across real process boundaries.
	serial := heat.DefaultGrid(spec.Rows, spec.Cols).SerialRun(spec.MaxIter)
	field := assembleHeat(t, spec, reports)
	if d := heat.MaxDiff(field, serial); d > 0.5 {
		t.Errorf("multi-process field deviates %g from serial reference", d)
	}
	for _, rep := range reports {
		if rep.Iters != spec.MaxIter {
			t.Errorf("rank %d ran %d iters, want %d", rep.Rank, rep.Iters, spec.MaxIter)
		}
		if rep.HTTP == "" {
			t.Errorf("rank %d served no obs endpoint", rep.Rank)
		}
		if rep.MsgsSent == 0 {
			t.Errorf("rank %d sent no messages", rep.Rank)
		}
	}
}
