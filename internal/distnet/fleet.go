package distnet

// The fleet metrics plane: nodes push their whole obs registry (Prometheus
// text) to the coordinator over the existing control connection (FrameObs),
// and FleetObs merges the per-node snapshots into one aggregated exposition
// — every node's series re-labelled with job/node — served from a single
// /metrics endpoint, plus a JSON /fleet status view. One scrape target per
// cluster instead of P, with per-rank attribution preserved in labels.
//
// A pushed snapshot is bytes from another process, so Update is the trust
// boundary: it parses each push once, rejects it whole if it does not parse
// or if any sample already carries a job or node label (the labels the
// merge adds), and keeps the parsed families. Nothing downstream parses.
// A refused push is counted per rank with its reason and shown in /fleet; a
// rank none of whose pushes was accepted is absent from the exposition.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"specomp/internal/obs"
	"specomp/internal/trace"
)

// Synthesized fleet-level metric names (the coordinator's own series,
// prepended to the aggregated exposition).
const (
	// MetricFleetNodes gauges how many nodes have pushed a snapshot.
	MetricFleetNodes = "specomp_fleet_nodes"
	// MetricFleetPushes counts snapshot pushes per node.
	MetricFleetPushes = "specomp_fleet_pushes_total"
	// MetricFleetSnapshotAge gauges each node's snapshot staleness (s).
	MetricFleetSnapshotAge = "specomp_fleet_snapshot_age_seconds"
)

// fleetNode is the latest snapshot state of one rank. fams is never
// modified once stored: Update replaces it whole.
type fleetNode struct {
	rank   int
	fams   []obs.PromFamily // latest snapshot, as parsed by Update
	bytes  int              // its size as pushed
	series int              // its samples
	pushes int
	last   time.Time

	refused int    // pushes Update rejected
	reason  string // why the latest of them was rejected
}

// FleetObs aggregates per-node metrics snapshots at the coordinator.
// Safe for concurrent use (the coordinator's event pump updates it while
// HTTP scrapes render it).
type FleetObs struct {
	mu    sync.Mutex
	job   string
	nodes map[int]*fleetNode
}

// NewFleetObs returns an empty aggregator for the given job name (may be
// empty; the coordinator fills it from the spec).
func NewFleetObs(job string) *FleetObs {
	return &FleetObs{job: job, nodes: make(map[int]*fleetNode)}
}

// SetJob fills the job label if none was set at construction.
func (f *FleetObs) SetJob(job string) {
	f.mu.Lock()
	if f.job == "" {
		f.job = job
	}
	f.mu.Unlock()
}

// Job returns the job label.
func (f *FleetObs) Job() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.job
}

// Update ingests one node's snapshot, parsing it once. A snapshot that does
// not parse, or whose samples carry a job or node label, is rejected whole,
// leaving the node's previous snapshot in place; the rejection is counted
// against the rank and returned.
func (f *FleetObs) Update(rank int, snapshot []byte) error {
	fams, series, err := parseSnapshot(snapshot)
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.nodes[rank]
	if n == nil {
		n = &fleetNode{rank: rank}
		f.nodes[rank] = n
	}
	if err != nil {
		n.refused++
		n.reason = err.Error()
		return fmt.Errorf("distnet: rank %d snapshot: %w", rank, err)
	}
	n.fams = fams
	n.bytes = len(snapshot)
	n.pushes++
	n.series = series
	n.last = time.Now()
	return nil
}

// parseSnapshot parses a pushed snapshot and counts its samples, refusing
// one whose samples carry a job or node label.
func parseSnapshot(snapshot []byte) ([]obs.PromFamily, int, error) {
	fams, err := obs.ParsePromFamilies(bytes.NewReader(snapshot))
	if err != nil {
		return nil, 0, err
	}
	series := 0
	for _, fam := range fams {
		for _, s := range fam.Samples {
			for _, l := range s.LabelPairs {
				if l.Key == "job" || l.Key == "node" {
					return nil, 0, fmt.Errorf("%s carries the fleet's own label %q", s.Name, l.Key)
				}
			}
		}
		series += len(fam.Samples)
	}
	return fams, series, nil
}

// snapshot copies the aggregation state out from under the lock, nodes in
// rank order.
func (f *FleetObs) snapshot() (job string, nodes []fleetNode) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, n := range f.nodes {
		nodes = append(nodes, *n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].rank < nodes[j].rank })
	return f.job, nodes
}

// injectLabels adds pairs to a sample's label set, keeping keys sorted so
// the merged exposition stays deterministic.
func injectLabels(s obs.PromSample, extra ...obs.Label) obs.PromSample {
	all := make([]obs.Label, 0, len(s.LabelPairs)+len(extra))
	all = append(all, s.LabelPairs...)
	all = append(all, extra...)
	sort.Slice(all, func(i, j int) bool { return all[i].Key < all[j].Key })
	s.LabelPairs = all
	return s
}

// Families renders the aggregation as parsed metric families: the
// coordinator's own fleet series first, then every node's families merged
// by name with job/node labels injected into each sample. Deterministic for
// a fixed set of snapshots: families sorted by name, node series in rank
// order. The scheduler merges many jobs' fleets family-wise from this (each
// job's samples stay distinct through their job label).
//
// The error is always nil: every snapshot was parsed when it was pushed.
// It stays in the signature because the benchmark harness (bench/) reads it.
func (f *FleetObs) Families() ([]obs.PromFamily, error) { return f.families(), nil }

func (f *FleetObs) families() []obs.PromFamily {
	job, nodes := f.snapshot()
	// A rank none of whose pushes was accepted has nothing to show.
	nodes = slices.DeleteFunc(nodes, func(n fleetNode) bool { return n.pushes == 0 })
	jl := obs.L("job", job)
	fleet := []obs.PromFamily{
		{Name: MetricFleetNodes, Help: "Nodes that have pushed a metrics snapshot.", Type: "gauge",
			Samples: []obs.PromSample{{Name: MetricFleetNodes, LabelPairs: []obs.Label{jl}, Value: float64(len(nodes))}}},
		{Name: MetricFleetPushes, Help: "Metrics snapshots received per node.", Type: "counter"},
		{Name: MetricFleetSnapshotAge, Help: "Age of each node's latest snapshot (s).", Type: "gauge"},
	}
	// Rank order means a merged family's samples arrive node by node,
	// already deterministic.
	var nodeFams []obs.PromFamily
	now := time.Now()
	for _, n := range nodes {
		ls := []obs.Label{jl, obs.L("node", strconv.Itoa(n.rank))}
		fleet[1].Samples = append(fleet[1].Samples, obs.PromSample{Name: MetricFleetPushes, LabelPairs: ls, Value: float64(n.pushes)})
		fleet[2].Samples = append(fleet[2].Samples, obs.PromSample{Name: MetricFleetSnapshotAge, LabelPairs: ls, Value: now.Sub(n.last).Seconds()})
		for _, fam := range n.fams {
			samples := make([]obs.PromSample, len(fam.Samples))
			for i, s := range fam.Samples {
				samples[i] = injectLabels(s, ls...)
			}
			fam.Samples = samples
			nodeFams = append(nodeFams, fam)
		}
	}
	return append(fleet, obs.MergeFamilies(nodeFams)...)
}

// WriteProm renders the aggregated fleet exposition (see Families).
func (f *FleetObs) WriteProm(w io.Writer) error { return obs.WriteFamilies(w, f.families()) }

// FleetNodeStatus is one node's entry in the /fleet JSON view. Refused and
// Refusal (the latest reason) show pushes Update rejected; a rank with no
// accepted push has zero Pushes and AgeSec.
type FleetNodeStatus struct {
	Rank    int     `json:"rank"`
	Pushes  int     `json:"pushes"`
	Series  int     `json:"series"`
	AgeSec  float64 `json:"age_sec"`
	Bytes   int     `json:"bytes"`
	Refused int     `json:"refused,omitempty"`
	Refusal string  `json:"refusal,omitempty"`
}

// FleetStatus is the /fleet JSON view.
type FleetStatus struct {
	Job   string            `json:"job"`
	Nodes []FleetNodeStatus `json:"nodes"`
}

// Status summarizes the aggregation state.
func (f *FleetObs) Status() FleetStatus {
	job, nodes := f.snapshot()
	st := FleetStatus{Job: job, Nodes: []FleetNodeStatus{}}
	now := time.Now()
	for _, n := range nodes {
		ns := FleetNodeStatus{Rank: n.rank, Pushes: n.pushes, Series: n.series, Bytes: n.bytes,
			Refused: n.refused, Refusal: n.reason}
		if n.pushes > 0 {
			ns.AgeSec = now.Sub(n.last).Seconds()
		}
		st.Nodes = append(st.Nodes, ns)
	}
	return st
}

// Totals sums each metric across all nodes' latest snapshots by the obs
// totals rule (histograms as name_sum and name_count). The soak harness
// derives fleet-level series from this.
func (f *FleetObs) Totals() map[string]float64 {
	_, nodes := f.snapshot()
	var all []obs.PromFamily
	for _, n := range nodes {
		all = append(all, n.fams...)
	}
	return obs.Totals(all)
}

// SelfCheck validates the aggregated exposition: every rank in [0, procs)
// appears as a node label, and no two samples share a name and label set.
// What it merges was parsed and label-checked by Update, so the rendered
// exposition re-parses with no label name repeated in any sample. This is
// the CI gate for the fleet plane.
func (f *FleetObs) SelfCheck(procs int) error {
	seen := make(map[string]bool)
	nodesSeen := make(map[string]bool)
	for _, fam := range f.families() {
		for _, s := range fam.Samples {
			key := s.Name + "{" + obs.LabelString(s.LabelPairs) + "}"
			if seen[key] {
				return fmt.Errorf("distnet: duplicate series %s", key)
			}
			seen[key] = true
			for _, l := range s.LabelPairs {
				if l.Key == "node" {
					nodesSeen[l.Value] = true
				}
			}
		}
	}
	for r := 0; r < procs; r++ {
		if !nodesSeen[strconv.Itoa(r)] {
			return fmt.Errorf("distnet: no series from rank %d in the aggregated exposition", r)
		}
	}
	return nil
}

// Handler serves the fleet plane over HTTP: /metrics (aggregated Prometheus
// exposition) and /fleet (JSON status).
func (f *FleetObs) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.MetricsHandler(f.families))
	mux.HandleFunc("/fleet", func(w http.ResponseWriter, r *http.Request) {
		obs.WriteJSON(w, http.StatusOK, f.Status())
	})
	return mux
}

// FleetJournals converts a run's node reports into the per-node journals
// trace.FleetChromeEvents merges. Rank 0's clock is the reference: every
// other node is shifted by its measured offset to rank 0 (ClockOff[0] is
// the rank-0-minus-local estimate from that node's direct link — the full
// mesh guarantees one exists). Nodes without a journal are skipped.
func FleetJournals(reports []NodeReport) []trace.NodeJournal {
	var out []trace.NodeJournal
	for _, r := range reports {
		if len(r.Journal) == 0 {
			continue
		}
		offset := 0.0
		if r.Rank != 0 && len(r.ClockOff) > 0 {
			offset = r.ClockOff[0]
		}
		out = append(out, trace.NodeJournal{
			Rank:   r.Rank,
			Start:  r.StartUnix,
			Offset: offset,
			Events: r.Journal,
		})
	}
	return out
}
