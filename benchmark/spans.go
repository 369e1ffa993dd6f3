package main

import (
	"sort"
	"strings"
	"time"

	"bigdansing/internal/engine"
	"bigdansing/internal/trace"
)

// span is one timed region as the benchmark keeps it: the spans it records
// itself around calls into a layer ("outside" spans), and the program's own
// trace.Tracer spans converted to the same shape so one reducer serves both.
// Spans of one op share Op. Times are offsets from the recorder's epoch.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1: no parent
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Kind   string        `json:"kind"` // "outside", or the engine.SpanKind name
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`

	attrs *trace.Span // source span of a converted tracer span, for attributes
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory; they are written out only after the last
// op of a run. It is used from the single load-generating goroutine.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens an outside span and returns its id.
func (r *recorder) begin(name string, parent, op int) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Kind: "outside", Start: time.Since(r.epoch)})
	return id
}

// end closes the span and returns its duration.
func (r *recorder) end(id int) time.Duration {
	r.spans[id].End = time.Since(r.epoch)
	return r.spans[id].dur()
}

// tracedRun is a finished tracer and the time it was created at.
type tracedRun struct {
	tr    *trace.Tracer
	epoch time.Time
}

// adopt appends the spans of a finished tracer, re-based onto the
// recorder's epoch, under a new outside span of the given name that covers
// them. It returns the adopted tracer spans.
func (r *recorder) adopt(name string, run tracedRun, op int) []span {
	parent := r.begin(name, -1, op)
	base := len(r.spans)
	shift := run.epoch.Sub(r.epoch)
	r.spans[parent].Start = shift
	for _, ts := range run.tr.Spans() {
		p := parent
		if ts.ParentID() >= 0 {
			p = base + ts.ParentID()
		}
		r.spans = append(r.spans, span{
			ID: base + ts.ID(), Parent: p, Op: op, Name: ts.Name(), Kind: ts.Kind().String(),
			Start: shift + ts.Start(), End: shift + ts.Start() + ts.Duration(), attrs: ts,
		})
	}
	r.spans[parent].End = r.spans[base].End // the tracer's root span
	return r.spans[base:]
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its child spans cover (overlapping children count once).
// Spans for which skipChild reports true do not count as cover: the task
// spans of a stage are the stage's own parallel work, not a layer below it.
func selfTimes(spans []span, skipChild func(span) bool) map[int]time.Duration {
	type iv struct{ lo, hi time.Duration }
	kids := map[int][]iv{}
	for _, s := range spans {
		if s.Parent < 0 || (skipChild != nil && skipChild(s)) {
			continue
		}
		kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		var cover time.Duration
		edge := s.Start // everything before edge is already counted
		for _, c := range ivs {
			lo, hi := max(c.lo, edge), min(c.hi, s.End)
			if hi > lo {
				cover += hi - lo
				edge = hi
			}
		}
		out[s.ID] = s.dur() - cover
	}
	return out
}

// wideStage reports whether a stage name is a wide (data-moving) operator:
// the Block layer's shuffles, groupings and range partitions, in their
// in-memory, spilling and networked (encode/decode) forms. Every other
// stage is a fused narrow chain (Scope, Iterate, Detect, GenFix bodies).
func wideStage(name string) bool {
	for _, p := range []string{"shuffle", "groupByKey", "reduceByKey", "coGroup", "rangePartition", "sort", "cartesian"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// observerMetrics are the per-layer metrics sourced from the program's own
// spans and counters; notSums are those among them that are not sums over
// the traced interval (a ratio, a high-water mark).
var (
	observerMetrics = []string{
		"core.detect_udf_s", "core.genfix_udf_s", "core.pairs", "core.violations", "core.fixes",
		"engine.narrow_self_s", "engine.shuffle_self_s", "engine.records_read", "engine.records_shuffled", "engine.task_skew",
		"spill.bytes_spilled", "spill.runs", "spill.merge_passes", "spill.peak_reserved_mb",
		"netexec.shuffle_s", "netexec.bytes_sent", "netexec.bytes_recv", "netexec.retries",
		"repair.components_s", "repair.instances_s", "repair.reconcile_s",
		"repair.components", "repair.assignments", "repair.rounds",
	}
	notSums = map[string]bool{"engine.task_skew": true, "spill.peak_reserved_mb": true}
)

// traced is what one op's tracer spans reduce to: the observerMetrics, by
// name.
type traced map[string]float64

// reduceTrace folds one op's converted tracer spans and flat counters.
func reduceTrace(spans []span, tr *trace.Tracer) traced {
	t := traced{}
	attr := func(s span, k engine.Attr) float64 {
		v, _ := s.attrs.AttrValue(k)
		return float64(v)
	}
	isTask := func(s span) bool { return s.Kind == engine.SpanTask.String() }
	self := selfTimes(spans, isTask)

	longest := -1
	for i, s := range spans {
		switch s.Kind {
		case engine.SpanPipeline.String():
			t["core.detect_udf_s"] += attr(s, engine.AttrDetectNanos) / 1e9 // summed over tasks
			t["core.genfix_udf_s"] += attr(s, engine.AttrGenFixNanos) / 1e9
			t["core.pairs"] += attr(s, engine.AttrPairs)
			t["core.violations"] += attr(s, engine.AttrViolations)
			t["core.fixes"] += attr(s, engine.AttrFixes)
		case engine.SpanStage.String():
			t["engine.records_shuffled"] += attr(s, engine.AttrRecordsShuffled) // reported per stage, not as a flat counter
			if wideStage(s.Name) {
				t["engine.shuffle_self_s"] += self[s.ID].Seconds()
			} else {
				t["engine.narrow_self_s"] += self[s.ID].Seconds()
			}
			if longest < 0 || s.dur() > spans[longest].dur() {
				longest = i
			}
		case engine.SpanNet.String():
			t["netexec.shuffle_s"] += s.dur().Seconds()
		case engine.SpanRound.String():
			t["repair.rounds"]++
		case engine.SpanRepair.String():
			switch s.Name {
			case "repair":
				t["repair.components"] += attr(s, engine.AttrComponents)
				t["repair.assignments"] += attr(s, engine.AttrAssignments)
			case "components", "instances", "reconcile":
				t["repair."+s.Name+"_s"] += s.dur().Seconds()
			}
		}
	}
	if longest >= 0 {
		var tasks []float64
		for _, s := range spans {
			if isTask(s) && s.Parent == spans[longest].ID {
				tasks = append(tasks, s.dur().Seconds())
			}
		}
		if mean := sum(tasks) / float64(max(len(tasks), 1)); mean > 0 {
			t["engine.task_skew"] = sorted(tasks)[len(tasks)-1] / mean
		}
	}
	for name, m := range map[string]engine.Metric{
		"engine.records_read": engine.MetricRecordsRead,
		"spill.bytes_spilled": engine.MetricBytesSpilled,
		"spill.runs":          engine.MetricSpillRuns,
		"spill.merge_passes":  engine.MetricMergePasses,
		"netexec.bytes_sent":  engine.MetricNetBytesSent,
		"netexec.bytes_recv":  engine.MetricNetBytesRecv,
		"netexec.retries":     engine.MetricNetRetries,
	} {
		t[name] = float64(tr.CountValue(m))
	}
	t["spill.peak_reserved_mb"] = float64(tr.CountValue(engine.MetricPeakReservedBytes)) / 1e6
	return t
}

// perOp divides the sums of a trace that covers n ops (the stream's
// batches) by n.
func (t traced) perOp(n float64) traced {
	for name := range t {
		if !notSums[name] {
			t[name] /= n
		}
	}
	return t
}
