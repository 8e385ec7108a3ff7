package main

import "fmt"

// metricDef names one metric the harness reports. Bound is the share of the
// parent commit's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics carry none.
// BENCHMARK.json repeats this table for the driver; bench_test.go keeps the
// two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd are the metrics a user of the system sees, taken from untraced
// units only. Failures travel beside them as failed/attempted, and the p75 of
// the job time (only svc-jobs has the samples for a tail) is reported as the
// per-layer sched.tts_p75_ms, because every end-to-end metric must be defined
// on every workload.
var endToEnd = []metricDef{
	{"tts_s", "s", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.05},
}

// perLayer are the single-layer metrics of the traced pass, layer = package
// name. A metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	{"apps.compute_us", "us", "lower", 0},
	{"apps.compute_allocs", "count", "lower", 0},
	{"apps.compute_bytes", "B", "lower", 0},
	{"apps.check_us", "us", "lower", 0},
	{"apps.compute_share", "ratio", "higher", 0},

	{"core.iter_us", "us", "lower", 0},
	{"core.iter_allocs", "count", "lower", 0},
	{"core.specs_made", "count", "higher", 0},
	{"core.specs_bad", "count", "lower", 0},
	{"core.spec_hit_ratio", "ratio", "higher", 0},
	{"core.repairs", "count", "lower", 0},
	{"core.cascade_redos", "count", "lower", 0},
	{"core.blocked_s", "s", "lower", 0},
	{"core.blocked_share", "ratio", "lower", 0},
	{"core.iter_p50_ms", "ms", "lower", 0},
	{"core.iter_p99_ms", "ms", "lower", 0},
	{"core.speedup_vs_block", "ratio", "higher", 0},

	{"predict.predict_ns", "ns", "lower", 0},
	{"perfmodel.pred_ratio", "ratio", "lower", 0},

	{"distnet.msgs", "count", "lower", 0},
	{"distnet.frames", "count", "lower", 0},
	{"distnet.msgs_per_frame", "ratio", "higher", 0},
	{"distnet.bytes", "B", "lower", 0},
	{"distnet.msg_rate", "1/s", "higher", 0},
	{"distnet.allocs_per_msg", "count", "lower", 0},
	{"distnet.encode_ns", "ns", "lower", 0},
	{"distnet.decode_ns", "ns", "lower", 0},
	{"distnet.batch_encode_ns", "ns", "lower", 0},
	{"distnet.rtt_us", "us", "lower", 0},
	{"distnet.flush_recv", "count", "lower", 0},
	{"distnet.flush_linger", "count", "lower", 0},
	{"distnet.flush_size", "count", "lower", 0},
	{"distnet.deliver_p50_ms", "ms", "lower", 0},
	{"distnet.deliver_p99_ms", "ms", "lower", 0},
	{"distnet.inject_excess_ms", "ms", "lower", 0},
	{"distnet.socket_tax", "ratio", "lower", 0},

	{"realtime.tts_s", "s", "lower", 0},
	{"realtime.blocked_share", "ratio", "lower", 0},

	{"faults.plan_ns", "ns", "lower", 0},

	{"checkpoint.snapshot_bytes", "B", "lower", 0},
	{"checkpoint.encode_us", "us", "lower", 0},
	{"checkpoint.save_us", "us", "lower", 0},
	{"checkpoint.load_us", "us", "lower", 0},

	{"sched.submit_us", "us", "lower", 0},
	{"sched.wait_ms", "ms", "lower", 0},
	{"sched.launch_ms", "ms", "lower", 0},
	{"sched.run_ms", "ms", "lower", 0},
	{"sched.finish_ms", "ms", "lower", 0},
	{"sched.tts_p75_ms", "ms", "lower", 0},
	{"sched.jobs_per_s", "1/s", "higher", 0},
	{"sched.preemptions", "count", "lower", 0},

	{"obs.trace_overhead_pct", "%", "lower", 0},
	{"obs.journal_events", "count", "lower", 0},

	{"run.cpu_s", "s", "lower", 0},
	{"run.cpu_util", "ratio", "lower", 0},
	{"run.gc_cycles", "count", "lower", 0},
	{"run.gc_pause_ms", "ms", "lower", 0},
	{"run.peak_rss_mb", "MB", "lower", 0},
	{"run.sol_err", "abs", "lower", 0},
	{"run.samples", "count", "higher", 0},
	{"run.unattributed_share", "ratio", "lower", 0},
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name against one of the tables above, so a
// misspelt name fails loudly instead of vanishing from the report.
type metricSet struct {
	defs []metricDef
	vals map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, vals: make(map[string]float64)}
}

func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.Name == name {
			m.vals[name] = v
			return
		}
	}
	panic(fmt.Sprintf("bench: metric %q is not in the table", name))
}

// export returns every metric of the table, reading 0 where the workload set
// nothing.
func (m *metricSet) export() map[string]value {
	out := make(map[string]value, len(m.defs))
	for _, d := range m.defs {
		out[d.Name] = value{Value: m.vals[d.Name], Unit: d.Unit}
	}
	return out
}
