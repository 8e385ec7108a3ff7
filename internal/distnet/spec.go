package distnet

// RunSpec is the run configuration the coordinator distributes to every
// node, and the builders that turn it into an application instance and an
// engine configuration. It is deliberately JSON ("control plane"): humans
// read and write it, it travels once per run. The data plane (wire.go) is
// binary.

import (
	"encoding/json"
	"fmt"
	"math"

	"specomp/internal/apps/heat"
	"specomp/internal/apps/jacobi"
	"specomp/internal/checkpoint"
	"specomp/internal/core"
	"specomp/internal/obs"
	"specomp/internal/partition"
	"specomp/internal/pipeline"
)

// RunSpec describes one distributed run. The coordinator normalizes it once
// and every node builds its application and engine configuration from the
// identical normalized copy, so all processors run behaviourally identical
// configs (the engine's standing requirement).
type RunSpec struct {
	// App selects the application: "heat" (2-D diffusion stencil), "jacobi"
	// (dense diagonally dominant linear system) or "pipeline" (a multi-stage
	// streaming pipeline on the engine's dependency-graph support, one stage
	// per rank).
	App string `json:"app"`
	// Procs is the number of node processes.
	Procs int `json:"procs"`
	// MaxIter bounds the iteration count.
	MaxIter int `json:"max_iter"`
	// FW and BW are the engine's forward and backward windows.
	FW int `json:"fw"`
	BW int `json:"bw,omitempty"`
	// Theta is the relative-error speculation threshold.
	Theta float64 `json:"theta"`
	// Rows, Cols size the heat grid.
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
	// N sizes the jacobi system.
	N int `json:"n,omitempty"`
	// Width is the pipeline's per-stage row width.
	Width int `json:"width,omitempty"`
	// Placement maps pipeline stage -> rank (a permutation of 0..Procs-1);
	// empty means stage s runs on rank s. It travels in the spec so every
	// node derives the identical rank-level dependency graph.
	Placement []int `json:"placement,omitempty"`
	// Exact zeroes every pipeline stage's check tolerance, making an FW=1
	// run bit-identical to the serial reference (every broadcast is
	// validated or repaired before it is sent).
	Exact bool `json:"exact,omitempty"`
	// Tol, when positive, enables jacobi's convergence stopper.
	Tol float64 `json:"tol,omitempty"`
	// Seed seeds problem generation (jacobi) — every node must agree.
	Seed int64 `json:"seed"`
	// Deadline forwards the engine's graceful-degradation deadline
	// (wall-clock seconds on this substrate); the overrun budget is the
	// engine's default, 2 iterations when Deadline > 0.
	Deadline float64 `json:"deadline,omitempty"`
	// MaxCrashOverrun forwards the engine's crash-bridging window: extra
	// speculative iterations allowed past a peer reported down, so
	// survivors compute through a crash until the peer rejoins (0 = engine
	// default: 6 when Deadline > 0).
	MaxCrashOverrun int `json:"max_crash_overrun,omitempty"`
	// CheckpointEvery, when positive, snapshots engine state every K
	// iterations; blobs are shipped to the coordinator for custody.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// Wire tunes the data-plane framing. The zero value means delta coding
	// off; peer links always batch.
	Wire WireSpec `json:"wire,omitempty"`
	// Job names the run in aggregated fleet metrics (the job label).
	// Defaults to App.
	Job string `json:"job,omitempty"`
	// ObsPushMS is the period, in milliseconds, at which nodes push metrics
	// snapshots to the coordinator when it asked for them. 0 means the
	// 500 ms default; negative disables pushing.
	ObsPushMS int `json:"obs_push_ms,omitempty"`
	// Trace enables wire-plane journal events (send/deliver stamps) and
	// ships each node's journal home in its result, so the coordinator can
	// merge a cross-process speculation trace.
	Trace bool `json:"trace,omitempty"`
}

// WireSpec tunes the distnet data plane. It travels inside the RunSpec so
// every node of the mesh frames its links identically.
type WireSpec struct {
	// Delta enables delta coding of consecutive same-stream vectors inside
	// batch frames, on every peer link.
	Delta bool `json:"delta,omitempty"`
}

// Normalize fills defaults and validates; the coordinator calls it once
// before distributing the spec.
func (s *RunSpec) Normalize() error {
	if s.App == "" {
		s.App = "heat"
	}
	if s.Procs <= 0 {
		s.Procs = 4
	}
	if s.MaxIter <= 0 {
		s.MaxIter = 200
	}
	if s.FW < 0 {
		return fmt.Errorf("distnet: negative FW")
	}
	if s.Theta <= 0 {
		s.Theta = 1e-3
	}
	if s.Job == "" {
		s.Job = s.App
	}
	if s.ObsPushMS == 0 {
		s.ObsPushMS = 500
	}
	switch s.App {
	case "heat":
		if s.Rows <= 0 {
			s.Rows = 48
		}
		if s.Cols <= 0 {
			s.Cols = 32
		}
		if s.Rows < s.Procs {
			return fmt.Errorf("distnet: heat grid of %d rows cannot be split over %d processors", s.Rows, s.Procs)
		}
	case "jacobi":
		if s.N <= 0 {
			s.N = 64
		}
		if s.N < s.Procs {
			return fmt.Errorf("distnet: jacobi system of %d variables cannot be split over %d processors", s.N, s.Procs)
		}
	case "pipeline":
		if s.Procs < 2 {
			return fmt.Errorf("distnet: a pipeline needs at least 2 stages, got %d processors", s.Procs)
		}
		if s.Width <= 0 {
			s.Width = 16
		}
		if s.Width > MaxFrame/8 {
			return fmt.Errorf("distnet: a %d-wide pipeline row cannot fit one frame", s.Width)
		}
		// Building the placed DepGraph validates Placement (length,
		// permutation, range) once, centrally, before the spec ships.
		if _, err := s.pipelineGraph().DepGraph(s.Placement); err != nil {
			return fmt.Errorf("distnet: %w", err)
		}
	default:
		return fmt.Errorf("distnet: unknown app %q (want heat, jacobi or pipeline)", s.App)
	}
	return nil
}

// pipelineGraph builds the spec's stage graph. Construction is deterministic
// in (Procs, Width, Seed), so every node process derives the identical
// pipeline from the coordinator's normalized spec.
func (s RunSpec) pipelineGraph() *pipeline.Graph {
	g := pipeline.Chain(s.Procs, s.Width, s.Seed)
	if s.Exact {
		g.SetUniformTol(0)
	}
	return g
}

// Blocks returns the per-processor variable ranges of the spec's uniform
// decomposition (processes are assumed homogeneous; capacity-weighted
// partitioning stays a simulator concern).
func (s RunSpec) Blocks() [][2]int {
	n := s.Rows
	if s.App == "jacobi" {
		n = s.N
	}
	caps := make([]float64, s.Procs)
	for i := range caps {
		caps[i] = 1
	}
	counts := partition.Proportional(n, caps)
	blocks := make([][2]int, s.Procs)
	lo := 0
	for i, c := range counts {
		blocks[i] = [2]int{lo, lo + c}
		lo += c
	}
	return blocks
}

// BuildApp constructs rank's application instance. Problem generation is
// seeded from the spec, so every node derives the identical global problem.
func BuildApp(s RunSpec, rank int) (core.App, error) {
	if rank < 0 || rank >= s.Procs {
		return nil, fmt.Errorf("distnet: rank %d outside [0, %d)", rank, s.Procs)
	}
	switch s.App {
	case "heat":
		return heat.NewApp(heat.DefaultGrid(s.Rows, s.Cols), s.Blocks(), rank, s.Theta), nil
	case "jacobi":
		prob := jacobi.NewDiagonallyDominant(s.N, s.Seed)
		app := jacobi.NewApp(prob, s.Blocks(), rank, s.Theta)
		app.Tol = s.Tol
		return app, nil
	case "pipeline":
		// The stage adapter implements core.Grapher, so the engine picks up
		// the placed chain DepGraph without any transport involvement.
		return s.pipelineGraph().AppAt(s.Placement, rank)
	}
	return nil, fmt.Errorf("distnet: unknown app %q", s.App)
}

// SerialPipeline evaluates the spec's pipeline on the lockstep serial
// reference and returns each stage's final row, stage-indexed.
func (s RunSpec) SerialPipeline() ([][]float64, error) {
	if s.App != "pipeline" {
		return nil, fmt.Errorf("distnet: SerialPipeline on app %q", s.App)
	}
	return s.pipelineGraph().Serial(s.MaxIter), nil
}

// VerifyPipeline compares every rank's reported final row against the serial
// reference, honouring the spec's stage placement, and fails if any element
// deviates by more than envelope. An Exact FW<=1 run must pass with an
// envelope of 0; tolerance-mode runs pass within their contraction envelope.
func VerifyPipeline(s RunSpec, reports []NodeReport, envelope float64) error {
	want, err := s.SerialPipeline()
	if err != nil {
		return err
	}
	byRank := make(map[int][]float64, len(reports))
	for _, rep := range reports {
		byRank[rep.Rank] = rep.Final
	}
	for stage := range want {
		rank := stage
		if s.Placement != nil {
			rank = s.Placement[stage]
		}
		final, ok := byRank[rank]
		if !ok {
			return fmt.Errorf("distnet: no report from rank %d (stage %d)", rank, stage)
		}
		if len(final) != len(want[stage]) {
			return fmt.Errorf("distnet: stage %d final has %d values, want %d", stage, len(final), len(want[stage]))
		}
		for i, v := range final {
			if d := math.Abs(v - want[stage][i]); d > envelope {
				return fmt.Errorf("distnet: stage %d (rank %d) element %d deviates %g from serial (envelope %g)",
					stage, rank, i, d, envelope)
			}
		}
	}
	return nil
}

// AssembleHeat stitches the per-rank final strips of a heat run back into
// the global field — the shape serial references compare against. It
// validates every strip's size so a half-reported run fails loudly.
func AssembleHeat(s RunSpec, reports []NodeReport) ([][]float64, error) {
	if s.App != "heat" {
		return nil, fmt.Errorf("distnet: AssembleHeat on app %q", s.App)
	}
	field := make([][]float64, s.Rows)
	blocks := s.Blocks()
	for _, rep := range reports {
		if rep.Rank < 0 || rep.Rank >= len(blocks) {
			return nil, fmt.Errorf("distnet: report for out-of-range rank %d", rep.Rank)
		}
		lo, hi := blocks[rep.Rank][0], blocks[rep.Rank][1]
		if want := (hi - lo) * s.Cols; len(rep.Final) != want {
			return nil, fmt.Errorf("distnet: rank %d final has %d values, want %d", rep.Rank, len(rep.Final), want)
		}
		for r := lo; r < hi; r++ {
			field[r] = rep.Final[(r-lo)*s.Cols : (r-lo+1)*s.Cols]
		}
	}
	return field, nil
}

// CoreConfig derives the engine configuration every node runs with.
func (s RunSpec) CoreConfig(metrics *obs.Registry, journal *obs.Journal, store checkpoint.Store) core.Config {
	cfg := core.Config{
		FW: s.FW, BW: s.BW, MaxIter: s.MaxIter,
		Deadline: s.Deadline, MaxCrashOverrun: s.MaxCrashOverrun,
		Metrics: metrics, Journal: journal,
	}
	if s.CheckpointEvery > 0 && store != nil {
		cfg.CheckpointEvery = s.CheckpointEvery
		cfg.CheckpointStore = store
	}
	return cfg
}

// wireConfig is the body of a FrameConfig: everything one node needs to
// join the mesh and run.
type wireConfig struct {
	Rank  int      `json:"rank"`
	Peers []string `json:"peers"` // listen address of every rank, index-aligned
	Spec  RunSpec  `json:"spec"`
	// Checkpoint is the node's latest snapshot in coordinator custody (nil
	// on a fresh run); a relaunched node restores and rejoins from it.
	Checkpoint []byte `json:"checkpoint,omitempty"`
	// ObsPush says the coordinator aggregates fleet metrics and wants the
	// node's periodic metrics-snapshot pushes.
	ObsPush bool `json:"obs_push,omitempty"`
	// Rejoin marks a config answering a rejoin hello: the run is already in
	// flight, the node's rank was vacated by its previous incarnation, and
	// the mesh must be rebuilt by dialing every peer (their accept loops
	// replace the stale links).
	Rejoin bool `json:"rejoin,omitempty"`
}

// decodeConfig parses a FrameConfig body and re-validates what the node is
// about to build from: the peer list and the rank first, which bounds Procs
// by the blob's length, then the spec's own Normalize (idempotent on the
// coordinator's normalized copy).
func decodeConfig(blob []byte) (wireConfig, error) {
	var wc wireConfig
	if err := json.Unmarshal(blob, &wc); err != nil {
		return wc, fmt.Errorf("distnet: decoding config: %w", err)
	}
	if p := wc.Spec.Procs; len(wc.Peers) != p || wc.Rank < 0 || wc.Rank >= p {
		return wc, fmt.Errorf("distnet: inconsistent config (rank %d of %d, %d peers)", wc.Rank, p, len(wc.Peers))
	}
	if err := wc.Spec.Normalize(); err != nil {
		return wc, err
	}
	return wc, nil
}

// LaunchStamps are a node's wall-clock launch milestones (unix seconds) on
// the way to iteration 0 (StartUnix), so whoever dispatched the fleet can
// split its launch latency from inside the run.
type LaunchStamps struct {
	JoinedUnix   float64 `json:"joined_unix,omitempty"`   // coordinator link up, hello sent
	MeshUnix     float64 `json:"mesh_unix,omitempty"`     // config in hand, every peer link up
	ReleasedUnix float64 `json:"released_unix,omitempty"` // start barrier released
}

func encodeJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// All wire structs are plain data; a marshal failure is a bug.
		panic(fmt.Sprintf("distnet: encoding %T: %v", v, err))
	}
	return b
}
