package main

import "fmt"

// metricDef declares one metric the benchmark emits. BENCHMARK.json at the
// repository root lists the same names, units and directions (the smoke test
// holds the two in step); bound and exact are used by -compare.
type metricDef struct {
	name   string
	unit   string
	higher bool    // true: a higher value is better
	bound  float64 // end-to-end only: share of the parent's median it may worsen
	exact  bool    // a count or quality figure that must repeat exactly
}

// endToEnd are the metrics a user of the system would see. Every workload
// reports every one of them, and none is ever zero.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "job_s", unit: "s", bound: 0.25},
	{name: "rows_per_s", unit: "rows/s", higher: true, bound: 0.25},
	{name: "alloc_mb_per_op", unit: "MB", bound: 0.15},
}

// perLayer are the metrics of single layers, named after this repository's
// packages. A metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	{name: "model.read_csv_s", unit: "s"},
	{name: "model.read_csv_mb_per_s", unit: "MB/s", higher: true},
	{name: "rules.compile_s", unit: "s"},
	{name: "core.plan_s", unit: "s"},
	{name: "core.detect_s", unit: "s"},
	{name: "core.detect_round1_s", unit: "s"},
	{name: "core.detect_rerun_s", unit: "s"},
	{name: "core.detect_udf_s", unit: "s"},
	{name: "core.genfix_udf_s", unit: "s"},
	{name: "core.pairs", unit: "count", exact: true},
	{name: "core.violations", unit: "count", exact: true},
	{name: "core.fixes", unit: "count", exact: true},
	{name: "core.violations_per_pair", unit: "ratio", higher: true, exact: true},
	{name: "engine.narrow_self_s", unit: "s"},
	{name: "engine.shuffle_self_s", unit: "s"},
	{name: "engine.records_read", unit: "count", exact: true},
	{name: "engine.records_shuffled", unit: "count", exact: true},
	{name: "engine.task_skew", unit: "ratio"},
	{name: "engine.peak_rss_mb", unit: "MB"},
	{name: "spill.bytes_spilled", unit: "bytes"},
	{name: "spill.runs", unit: "count"},
	{name: "spill.merge_passes", unit: "count"},
	{name: "spill.peak_reserved_mb", unit: "MB"},
	{name: "spill.budget_tax_ratio", unit: "ratio"},
	{name: "mapred.bytes_spilled", unit: "bytes"},
	{name: "mapred.bytes_read", unit: "bytes"},
	{name: "mapred.disk_gap_ratio", unit: "ratio"},
	{name: "netexec.shuffle_s", unit: "s"},
	{name: "netexec.bytes_sent", unit: "bytes"},
	{name: "netexec.bytes_recv", unit: "bytes"},
	{name: "netexec.retries", unit: "count"},
	{name: "repair.repair_s", unit: "s"},
	{name: "repair.apply_s", unit: "s"},
	{name: "repair.components_s", unit: "s"},
	{name: "repair.instances_s", unit: "s"},
	{name: "repair.reconcile_s", unit: "s"},
	{name: "repair.components", unit: "count", exact: true},
	{name: "repair.assignments", unit: "count", exact: true},
	{name: "repair.rounds", unit: "count", exact: true},
	{name: "cleanse.loop_overhead_s", unit: "s"},
	{name: "cleanse.ingest_ms", unit: "ms"},
	{name: "cleanse.flush_ms", unit: "ms"},
	{name: "cleanse.flush_growth_ratio", unit: "ratio"},
	{name: "serve.ingest_http_ms", unit: "ms"},
	{name: "serve.flush_http_ms", unit: "ms"},
	{name: "serve.overhead_ms", unit: "ms"},
	{name: "serve.rejected_429", unit: "count"},
	{name: "serve.batch_p50_ms", unit: "ms"},
	{name: "serve.batch_p95_ms", unit: "ms"},
	{name: "trace.overhead_ratio", unit: "ratio"},
	{name: "quality.repair_precision", unit: "ratio", higher: true, exact: true},
	{name: "quality.repair_recall", unit: "ratio", higher: true, exact: true},
	{name: "quality.remaining_violations", unit: "count", exact: true},
}

// measure is one reported metric. Value is the figure (a median where the
// metric has samples), IQR the distance between the samples' quartiles and
// N their count.
type measure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	IQR   float64 `json:"iqr"`
	N     int     `json:"n"`
}

// result is one run of one workload, untraced (end-to-end metrics) or
// traced (per-layer metrics).
type result struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]measure `json:"metrics"`

	spans []span // outside and converted tracer spans of a traced run
}

func newResult(sp *spec, traced bool) *result {
	r := &result{Workload: sp.name, Traced: traced, Metrics: map[string]measure{}}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		r.Metrics[d.name] = measure{Unit: d.unit}
	}
	return r
}

// fail records one failed op (or failed check) with its reason.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// set stores a single-valued metric.
func (r *result) set(name string, v float64) {
	m, ok := r.Metrics[name]
	if !ok {
		panic("benchmark: metric " + name + " is not declared for this run")
	}
	m.Value, m.IQR, m.N = v, 0, 1
	r.Metrics[name] = m
}

// setSamples stores a metric as the median of its samples.
func (r *result) setSamples(name string, xs []float64) {
	r.set(name, median(xs))
	m := r.Metrics[name]
	m.IQR, m.N = iqr(xs), len(xs)
	r.Metrics[name] = m
}

// setValue replaces a metric's figure, keeping the spread of its samples:
// for figures defined over the whole run (rows over summed wall time) whose
// spread is still that of the per-op samples.
func (r *result) setValue(name string, v float64) {
	m := r.Metrics[name]
	m.Value = v
	r.Metrics[name] = m
}
