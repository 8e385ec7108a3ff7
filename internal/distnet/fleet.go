package distnet

// The fleet metrics plane: nodes push their whole obs registry (Prometheus
// text) to the coordinator over the existing control connection (FrameObs),
// and FleetObs merges the per-node snapshots into one aggregated exposition
// — every node's series re-labelled with job/node — served from a single
// /metrics endpoint, plus a JSON /fleet status view. One scrape target per
// cluster instead of P, with per-rank attribution preserved in labels.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
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

// fleetNode is the latest snapshot state of one rank.
type fleetNode struct {
	text   []byte // latest Prometheus text snapshot, verbatim
	pushes int
	series int // samples in the latest snapshot
	last   time.Time
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

// Update ingests one node's snapshot. Malformed snapshots are rejected
// whole, leaving the node's previous snapshot in place.
func (f *FleetObs) Update(rank int, snapshot []byte) error {
	samples, err := obs.ParseProm(bytes.NewReader(snapshot))
	if err != nil {
		return fmt.Errorf("distnet: rank %d snapshot: %w", rank, err)
	}
	f.mu.Lock()
	n := f.nodes[rank]
	if n == nil {
		n = &fleetNode{}
		f.nodes[rank] = n
	}
	n.text = append(n.text[:0], snapshot...)
	n.pushes++
	n.series = len(samples)
	n.last = time.Now()
	f.mu.Unlock()
	return nil
}

// Ranks returns the ranks that have pushed at least one snapshot, sorted.
func (f *FleetObs) Ranks() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ranksLocked()
}

func (f *FleetObs) ranksLocked() []int {
	out := make([]int, 0, len(f.nodes))
	for r := range f.nodes {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// snapshot copies the aggregation state out from under the lock.
func (f *FleetObs) snapshot() (job string, ranks []int, nodes map[int]fleetNode) {
	f.mu.Lock()
	defer f.mu.Unlock()
	job = f.job
	ranks = f.ranksLocked()
	nodes = make(map[int]fleetNode, len(f.nodes))
	for r, n := range f.nodes {
		cp := *n
		cp.text = append([]byte(nil), n.text...)
		nodes[r] = cp
	}
	return job, ranks, nodes
}

// injectLabels adds pairs to a sample's label set, keeping keys sorted so
// the merged exposition stays deterministic.
func injectLabels(s obs.PromSample, extra ...obs.Label) obs.PromSample {
	all := make([]obs.Label, 0, len(s.LabelPairs)+len(extra))
	all = append(all, s.LabelPairs...)
	all = append(all, extra...)
	sort.Slice(all, func(i, j int) bool { return all[i].Key < all[j].Key })
	s.LabelPairs = all
	s.Labels = obs.LabelString(all)
	return s
}

// Families renders the aggregation as parsed metric families: the
// coordinator's own fleet series first, then every node's families merged
// by name with job/node labels injected into each sample. Deterministic for
// a fixed set of snapshots: families sorted by name, node series in rank
// order. The scheduler merges many jobs' fleets family-wise from this (each
// job's samples stay distinct through their job label).
func (f *FleetObs) Families() ([]obs.PromFamily, error) {
	job, ranks, nodes := f.snapshot()
	jl := obs.L("job", job)

	fleet := []obs.PromFamily{
		{Name: MetricFleetNodes, Help: "Nodes that have pushed a metrics snapshot.", Type: "gauge",
			Samples: []obs.PromSample{injectLabels(obs.PromSample{Name: MetricFleetNodes, Value: float64(len(ranks))}, jl)}},
		{Name: MetricFleetPushes, Help: "Metrics snapshots received per node.", Type: "counter"},
		{Name: MetricFleetSnapshotAge, Help: "Age of each node's latest snapshot (s).", Type: "gauge"},
	}
	now := time.Now()
	for _, r := range ranks {
		n := nodes[r]
		nl := obs.L("node", fmt.Sprintf("%d", r))
		fleet[1].Samples = append(fleet[1].Samples,
			injectLabels(obs.PromSample{Name: MetricFleetPushes, Value: float64(n.pushes)}, jl, nl))
		fleet[2].Samples = append(fleet[2].Samples,
			injectLabels(obs.PromSample{Name: MetricFleetSnapshotAge, Value: now.Sub(n.last).Seconds()}, jl, nl))
	}

	// Merge the node families by name. Rank order means a family's samples
	// arrive node-by-node, already deterministic.
	var nodeFams []obs.PromFamily
	for _, r := range ranks {
		fams, err := obs.ParsePromFamilies(bytes.NewReader(nodes[r].text))
		if err != nil {
			return nil, fmt.Errorf("distnet: rank %d snapshot: %w", r, err)
		}
		nl := obs.L("node", fmt.Sprintf("%d", r))
		for _, fam := range fams {
			for i, s := range fam.Samples {
				fam.Samples[i] = injectLabels(s, jl, nl)
			}
		}
		nodeFams = append(nodeFams, fams...)
	}
	return append(fleet, obs.MergeFamilies(nodeFams)...), nil
}

// WriteProm renders the aggregated fleet exposition (see Families).
func (f *FleetObs) WriteProm(w *bytes.Buffer) error {
	fams, err := f.Families()
	if err != nil {
		return err
	}
	return obs.WriteFamilies(w, fams)
}

// FleetNodeStatus is one node's entry in the /fleet JSON view.
type FleetNodeStatus struct {
	Rank   int     `json:"rank"`
	Pushes int     `json:"pushes"`
	Series int     `json:"series"`
	AgeSec float64 `json:"age_sec"`
	Bytes  int     `json:"bytes"`
}

// FleetStatus is the /fleet JSON view.
type FleetStatus struct {
	Job   string            `json:"job"`
	Nodes []FleetNodeStatus `json:"nodes"`
}

// Status summarizes the aggregation state.
func (f *FleetObs) Status() FleetStatus {
	job, ranks, nodes := f.snapshot()
	st := FleetStatus{Job: job, Nodes: []FleetNodeStatus{}}
	now := time.Now()
	for _, r := range ranks {
		n := nodes[r]
		st.Nodes = append(st.Nodes, FleetNodeStatus{
			Rank: r, Pushes: n.pushes, Series: n.series,
			AgeSec: now.Sub(n.last).Seconds(), Bytes: len(n.text),
		})
	}
	return st
}

// Totals sums each metric across all nodes' latest snapshots, keyed by
// sample name (histogram _bucket series are skipped; their _sum/_count
// aggregate). The soak harness derives fleet-level series from this.
func (f *FleetObs) Totals() (map[string]float64, error) {
	_, ranks, nodes := f.snapshot()
	out := make(map[string]float64)
	for _, r := range ranks {
		samples, err := obs.ParseProm(bytes.NewReader(nodes[r].text))
		if err != nil {
			return nil, fmt.Errorf("distnet: rank %d snapshot: %w", r, err)
		}
		for _, s := range samples {
			if len(s.Name) > 7 && s.Name[len(s.Name)-7:] == "_bucket" {
				continue
			}
			out[s.Name] += s.Value
		}
	}
	return out, nil
}

// SelfCheck validates the aggregated exposition end to end: it renders
// WriteProm, re-parses it, and verifies that every rank in [0, procs)
// appears as a node label and that no two samples collide on (name, labels).
// This is the CI gate for the fleet plane.
func (f *FleetObs) SelfCheck(procs int) error {
	var buf bytes.Buffer
	if err := f.WriteProm(&buf); err != nil {
		return err
	}
	samples, err := obs.ParseProm(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return fmt.Errorf("distnet: aggregated exposition does not re-parse: %w", err)
	}
	seen := make(map[string]bool, len(samples))
	nodesSeen := make(map[string]bool)
	for _, s := range samples {
		key := s.Name + "{" + s.Labels + "}"
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
	for r := 0; r < procs; r++ {
		if !nodesSeen[fmt.Sprintf("%d", r)] {
			return fmt.Errorf("distnet: no series from rank %d in the aggregated exposition", r)
		}
	}
	return nil
}

// Handler serves the fleet plane over HTTP: /metrics (aggregated Prometheus
// exposition) and /fleet (JSON status).
func (f *FleetObs) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		if err := f.WriteProm(&buf); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write(buf.Bytes())
	})
	mux.HandleFunc("/fleet", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		_ = enc.Encode(f.Status())
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
