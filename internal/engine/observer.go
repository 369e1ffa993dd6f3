package engine

// The Observer API is the single observability surface of the system: one
// interface through which the engine (stages, tasks, shuffles, spills), the
// planner (logical->physical compilation), the detection pipelines and the
// repair phases report what they are doing. It replaces the accessor sprawl
// that used to grow on Stats — callers install an Observer once
// (Config.Observer / cleanse.WithObserver) and receive a structured event
// stream instead of stitching counters together afterwards.
//
// Two implementations ship:
//
//   - Stats (this package) is the built-in default: it folds the events into
//     the flat counters and per-stage log that Snapshot reports. It is what
//     every Context uses when no Observer is configured, and it is cheap —
//     nothing on the record-level hot paths, one small allocation per stage,
//     one atomic add per task.
//   - trace.Tracer (internal/trace) builds the full span tree — operator
//     names, wall times, records in/out, bytes spilled, per-worker tracks —
//     and exports it as an EXPLAIN ANALYZE-style plan tree or Chrome
//     trace-event JSON.
//
// When a user Observer is installed the Context tees events to it and to its
// own Stats, so Snapshot stays truthful either way.

// SpanKind classifies a span for observers and exporters.
type SpanKind uint8

const (
	// SpanRun is the root of a traced run.
	SpanRun SpanKind = iota
	// SpanStage is one parallel engine stage (a fused narrow chain, a
	// shuffle scatter, a grouping, a merge pass, ...).
	SpanStage
	// SpanTask is one partition task inside a stage.
	SpanTask
	// SpanPlan is plan compilation (logical -> physical).
	SpanPlan
	// SpanPipeline is one rule pipeline's detection run.
	SpanPipeline
	// SpanRepair is a repair phase (component discovery, the parallel
	// instances, a reconciliation round).
	SpanRepair
	// SpanRound is one detect-repair iteration of the cleansing loop.
	SpanRound
	// SpanNet is one networked-exchange operation of the multi-process
	// backend (a distributed shuffle, cartesian or recovery action).
	SpanNet
)

// String names the kind for exporters (Chrome trace categories).
func (k SpanKind) String() string {
	switch k {
	case SpanRun:
		return "run"
	case SpanStage:
		return "stage"
	case SpanTask:
		return "task"
	case SpanPlan:
		return "plan"
	case SpanPipeline:
		return "pipeline"
	case SpanRepair:
		return "repair"
	case SpanRound:
		return "round"
	case SpanNet:
		return "net"
	default:
		return "span"
	}
}

// Attr identifies one integer attribute of a span. Attributes are small
// enum keys (not strings) so reporting one is a plain store, never an
// allocation.
type Attr uint8

const (
	// AttrPartitions is the task count of a stage.
	AttrPartitions Attr = iota
	// AttrPart is the partition index of a task.
	AttrPart
	// AttrWorker is the worker (track) a task ran on.
	AttrWorker
	// AttrRecordsIn / AttrRecordsOut bracket a span's record flow.
	AttrRecordsIn
	AttrRecordsOut
	// AttrRecordsShuffled counts records moved across partitions.
	AttrRecordsShuffled
	// AttrBytesSpilled / AttrSpillRuns / AttrMergePasses describe a span's
	// out-of-core activity.
	AttrBytesSpilled
	AttrSpillRuns
	AttrMergePasses
	// AttrViolations / AttrFixes summarize a detection pipeline.
	AttrViolations
	AttrFixes
	// AttrDetectNanos / AttrGenFixNanos are the cumulative UDF times of a
	// pipeline (only measured when an Observer is installed).
	AttrDetectNanos
	AttrGenFixNanos
	// AttrPipelines / AttrSharedScans summarize plan compilation.
	AttrPipelines
	AttrSharedScans
	// AttrComponents / AttrSplitComponents / AttrConflicts /
	// AttrAssignments summarize a repair phase.
	AttrComponents
	AttrSplitComponents
	AttrConflicts
	AttrAssignments
	// AttrNetBytesSent / AttrNetBytesRecv bracket the socket traffic of a
	// networked-exchange span; AttrNetRetries counts its RPC retries,
	// AttrNetRedispatches its straggler re-dispatches and AttrNetRecoveries
	// the worker deaths it recovered from.
	AttrNetBytesSent
	AttrNetBytesRecv
	AttrNetRetries
	AttrNetRedispatches
	AttrNetRecoveries
	// AttrAlgorithm identifies which repair algorithm a repair span ran
	// (a repair.Algo* code).
	AttrAlgorithm
	// AttrVariables / AttrFactors size a probabilistic repair's compiled
	// factor graph; AttrSamples / AttrAccepted summarize its Gibbs run
	// (recorded sweeps, value-changing draws); AttrExamples / AttrEpochs
	// describe its weight-learning pass.
	AttrVariables
	AttrFactors
	AttrSamples
	AttrAccepted
	AttrExamples
	AttrEpochs
	// AttrPairs counts the candidate items a detection pipeline enumerated
	// (one per Detect invocation; only measured when an Observer is
	// installed).
	AttrPairs

	// NumAttrs bounds the enum; implementations may use it to size arrays.
	NumAttrs
)

// String names the attribute for exporters.
func (a Attr) String() string {
	switch a {
	case AttrPartitions:
		return "partitions"
	case AttrPart:
		return "part"
	case AttrWorker:
		return "worker"
	case AttrRecordsIn:
		return "records_in"
	case AttrRecordsOut:
		return "records_out"
	case AttrRecordsShuffled:
		return "shuffled"
	case AttrBytesSpilled:
		return "bytes_spilled"
	case AttrSpillRuns:
		return "spill_runs"
	case AttrMergePasses:
		return "merge_passes"
	case AttrViolations:
		return "violations"
	case AttrFixes:
		return "fixes"
	case AttrDetectNanos:
		return "detect_ns"
	case AttrGenFixNanos:
		return "genfix_ns"
	case AttrPipelines:
		return "pipelines"
	case AttrSharedScans:
		return "shared_scans"
	case AttrComponents:
		return "components"
	case AttrSplitComponents:
		return "split_components"
	case AttrConflicts:
		return "conflicts"
	case AttrAssignments:
		return "assignments"
	case AttrNetBytesSent:
		return "net_bytes_sent"
	case AttrNetBytesRecv:
		return "net_bytes_recv"
	case AttrNetRetries:
		return "net_retries"
	case AttrNetRedispatches:
		return "net_redispatches"
	case AttrNetRecoveries:
		return "net_recoveries"
	case AttrAlgorithm:
		return "algorithm"
	case AttrVariables:
		return "variables"
	case AttrFactors:
		return "factors"
	case AttrSamples:
		return "samples"
	case AttrAccepted:
		return "accepted"
	case AttrExamples:
		return "examples"
	case AttrEpochs:
		return "epochs"
	case AttrPairs:
		return "pairs"
	default:
		return "attr"
	}
}

// Metric identifies one flat run-wide counter, for events that are not tied
// to a span (records ingested by Parallelize, spill totals, the budget
// high-water mark).
type Metric uint8

const (
	MetricRecordsRead Metric = iota
	MetricRecordsShuffled
	MetricBytesSpilled
	MetricSpillRuns
	MetricMergePasses
	// MetricPeakReservedBytes folds with max, not sum.
	MetricPeakReservedBytes
	// Networked-backend counters: socket bytes in each direction, TCP
	// dials, RPC retries after timeouts/failures, straggler re-dispatches,
	// and worker-death recoveries (re-placement from coordinator lineage).
	MetricNetBytesSent
	MetricNetBytesRecv
	MetricNetDials
	MetricNetRetries
	MetricNetStragglers
	MetricNetRecoveries

	// NumMetrics bounds the enum.
	NumMetrics
)

// String names the metric for exporters.
func (m Metric) String() string {
	switch m {
	case MetricRecordsRead:
		return "records_read"
	case MetricRecordsShuffled:
		return "records_shuffled"
	case MetricBytesSpilled:
		return "bytes_spilled"
	case MetricSpillRuns:
		return "spill_runs"
	case MetricMergePasses:
		return "merge_passes"
	case MetricPeakReservedBytes:
		return "peak_reserved_bytes"
	case MetricNetBytesSent:
		return "net_bytes_sent"
	case MetricNetBytesRecv:
		return "net_bytes_recv"
	case MetricNetDials:
		return "net_dials"
	case MetricNetRetries:
		return "net_retries"
	case MetricNetStragglers:
		return "net_stragglers"
	case MetricNetRecoveries:
		return "net_recoveries"
	default:
		return "metric"
	}
}

// Span is one timed region of work reported to an Observer. The goroutine
// that begins a span owns it: it sets attributes and calls End exactly once
// (End must run even when the spanned work panics — callers defer it).
// Implementations may aggregate or drop whatever they do not care about.
type Span interface {
	// Attr reports one integer attribute of the span.
	Attr(k Attr, v int64)
	// End closes the span. Implementations must tolerate duplicate Ends.
	End()
}

// Observer receives the execution events of one run. Implementations must
// be safe for concurrent use: tasks of a stage begin and end their spans
// from the worker goroutines.
type Observer interface {
	// BeginSpan opens a span. A nil parent parents the span to the
	// observer's current scope (the innermost open non-task span) — layers
	// that do not know their caller pass nil and still nest correctly,
	// because the stack above them (cleansing round -> pipeline -> stage)
	// begins and ends spans in LIFO order. Concurrent spans (stage tasks,
	// parallel repair instances) must pass their parent explicitly.
	BeginSpan(parent Span, name string, kind SpanKind) Span
	// Count folds one flat counter delta (MetricPeakReservedBytes folds
	// with max).
	Count(m Metric, v int64)
}

// Discard is an Observer that drops every event. It is the zero-overhead
// sink for layers handed an optional Observer.
var Discard Observer = discardObserver{}

type discardObserver struct{}

func (discardObserver) BeginSpan(Span, string, SpanKind) Span { return discardSpan{} }
func (discardObserver) Count(Metric, int64)                   {}

type discardSpan struct{}

func (discardSpan) Attr(Attr, int64) {}
func (discardSpan) End()             {}

// Tee fans events out to several observers; spans begun on the tee begin a
// span on every branch. The Context uses it to keep Stats counting while a
// user Observer (e.g. a tracer) is installed.
func Tee(obs ...Observer) Observer {
	flat := make([]Observer, 0, len(obs))
	for _, o := range obs {
		if o == nil || o == Discard {
			continue
		}
		flat = append(flat, o)
	}
	switch len(flat) {
	case 0:
		return Discard
	case 1:
		return flat[0]
	}
	return &teeObserver{obs: flat}
}

type teeObserver struct{ obs []Observer }

type teeSpan struct{ spans []Span }

func (t *teeObserver) BeginSpan(parent Span, name string, kind SpanKind) Span {
	ts := &teeSpan{spans: make([]Span, len(t.obs))}
	pts, _ := parent.(*teeSpan)
	for i, o := range t.obs {
		var p Span
		if pts != nil {
			p = pts.spans[i]
		}
		ts.spans[i] = o.BeginSpan(p, name, kind)
	}
	return ts
}

func (t *teeObserver) Count(m Metric, v int64) {
	for _, o := range t.obs {
		o.Count(m, v)
	}
}

func (ts *teeSpan) Attr(k Attr, v int64) {
	for _, s := range ts.spans {
		s.Attr(k, v)
	}
}

func (ts *teeSpan) End() {
	for _, s := range ts.spans {
		s.End()
	}
}
