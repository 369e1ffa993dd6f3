package trace

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"bigdansing/internal/engine"
)

// TestScopedNesting: nil-parent spans nest under the innermost open scoped
// span; explicit parents bypass the stack.
func TestScopedNesting(t *testing.T) {
	tr := New()
	outer := tr.BeginSpan(nil, "round 1", engine.SpanRound)
	inner := tr.BeginSpan(nil, "fd1", engine.SpanPipeline)
	task := tr.BeginSpan(inner, "fd1", engine.SpanTask)
	task.End()
	inner.End()
	sibling := tr.BeginSpan(nil, "repair", engine.SpanRepair)
	sibling.End()
	outer.End()
	tr.Finish()

	spans := tr.Spans()
	if len(spans) != 5 {
		t.Fatalf("got %d spans, want 5", len(spans))
	}
	byName := map[string]*Span{}
	for _, s := range spans {
		byName[s.Name()] = s
	}
	if got := byName["round 1"].ParentID(); got != 0 {
		t.Errorf("round parent = %d, want 0 (root)", got)
	}
	if got := byName["fd1"]; got.Kind() == engine.SpanPipeline && got.ParentID() != byName["round 1"].ID() {
		t.Errorf("pipeline parent = %d, want round", got.ParentID())
	}
	if got := byName["repair"].ParentID(); got != byName["round 1"].ID() {
		t.Errorf("repair parent = %d, want round (inner ended first)", got)
	}
	for _, s := range spans {
		if s.Duration() < 0 {
			t.Errorf("span %q has negative duration", s.Name())
		}
	}
}

// TestEndIdempotent: duplicate Ends must not corrupt the scope stack or
// the recorded duration.
func TestEndIdempotent(t *testing.T) {
	tr := New()
	sp := tr.BeginSpan(nil, "stage", engine.SpanStage)
	sp.End()
	d := sp.(*Span).Duration()
	sp.End()
	if sp.(*Span).Duration() != d {
		t.Error("second End changed the duration")
	}
	tr.Finish()
}

// TestFinishClosesLeakedSpans: a span left open (crashed layer) is closed
// by Finish so exporters see a complete tree.
func TestFinishClosesLeakedSpans(t *testing.T) {
	tr := New()
	tr.BeginSpan(nil, "leaky", engine.SpanStage) // never ended
	tr.Finish()
	for _, s := range tr.Spans() {
		if !s.ended.Load() {
			t.Errorf("span %q still open after Finish", s.Name())
		}
	}
}

// TestConcurrentTaskSpans: task spans begin/end from worker goroutines;
// the tracer must keep the tree consistent (run with -race).
func TestConcurrentTaskSpans(t *testing.T) {
	tr := New()
	stage := tr.BeginSpan(nil, "stage", engine.SpanStage)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sp := tr.BeginSpan(stage, "stage", engine.SpanTask)
				sp.Attr(engine.AttrWorker, int64(w))
				sp.Attr(engine.AttrRecordsIn, 1)
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	stage.End()
	tr.Finish()
	spans := tr.Spans()
	if len(spans) != 2+8*50 {
		t.Fatalf("got %d spans, want %d", len(spans), 2+8*50)
	}
	for _, s := range spans {
		if s.Kind() == engine.SpanTask && s.ParentID() != stage.(*Span).ID() {
			t.Fatalf("task parented to %d, want stage", s.ParentID())
		}
	}
}

// TestCountFolds: sums for flow metrics, max for the peak.
func TestCountFolds(t *testing.T) {
	tr := New()
	tr.Count(engine.MetricRecordsRead, 10)
	tr.Count(engine.MetricRecordsRead, 5)
	tr.Count(engine.MetricPeakReservedBytes, 100)
	tr.Count(engine.MetricPeakReservedBytes, 40)
	tr.Count(engine.MetricPeakReservedBytes, 70)
	if got := tr.CountValue(engine.MetricRecordsRead); got != 15 {
		t.Errorf("records read = %d, want 15", got)
	}
	if got := tr.CountValue(engine.MetricPeakReservedBytes); got != 100 {
		t.Errorf("peak = %d, want 100 (max fold)", got)
	}
}

// TestChromeExportValidates: the exporter's output must pass our own
// schema validator and contain per-worker thread tracks.
func TestChromeExportValidates(t *testing.T) {
	tr := New()
	stage := tr.BeginSpan(nil, "Map", engine.SpanStage)
	for w := 0; w < 2; w++ {
		sp := tr.BeginSpan(stage, "Map", engine.SpanTask)
		sp.Attr(engine.AttrWorker, int64(w))
		sp.End()
	}
	stage.End()
	tr.Finish()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("exported trace fails validation: %v", err)
	}
	text := buf.String()
	for _, want := range []string{`"worker 0"`, `"worker 1"`, `"driver"`, `"displayTimeUnit":"ms"`} {
		if !strings.Contains(text, want) {
			t.Errorf("trace JSON missing %s", want)
		}
	}
}

// TestValidatorRejectsBadTraces: the validator must catch the failure
// modes a broken exporter could produce.
func TestValidatorRejectsBadTraces(t *testing.T) {
	bad := map[string]string{
		"not json":      `{`,
		"no array":      `{"displayTimeUnit":"ms"}`,
		"empty":         `{"traceEvents":[]}`,
		"unknown phase": `{"traceEvents":[{"name":"x","ph":"Z","ts":0,"pid":0,"tid":0}]}`,
		"no name":       `{"traceEvents":[{"ph":"X","ts":0,"pid":0,"tid":0}]}`,
		"no pid":        `{"traceEvents":[{"name":"x","ph":"X","ts":0}]}`,
		"negative ts":   `{"traceEvents":[{"name":"x","ph":"X","ts":-5,"pid":0,"tid":0}]}`,
		"meta no args":  `{"traceEvents":[{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":0}]}`,
	}
	for name, data := range bad {
		if err := ValidateChromeTrace([]byte(data)); err == nil {
			t.Errorf("%s: validator accepted invalid trace", name)
		}
	}
	good := `{"traceEvents":[{"name":"x","ph":"X","ts":1.5,"dur":2,"pid":0,"tid":1}]}`
	if err := ValidateChromeTrace([]byte(good)); err != nil {
		t.Errorf("validator rejected a valid trace: %v", err)
	}
}

// TestWriteTreeAggregatesTasks: the explain tree hides task spans but
// folds their record counts into the stage line.
func TestWriteTreeAggregatesTasks(t *testing.T) {
	tr := New()
	stage := tr.BeginSpan(nil, "Map·Filter", engine.SpanStage)
	stage.Attr(engine.AttrPartitions, 2)
	for p := 0; p < 2; p++ {
		sp := tr.BeginSpan(stage, "Map·Filter", engine.SpanTask)
		sp.Attr(engine.AttrPart, int64(p))
		sp.Attr(engine.AttrRecordsIn, 10)
		sp.Attr(engine.AttrRecordsOut, 7)
		sp.End()
	}
	stage.End()
	tr.Finish()

	var buf bytes.Buffer
	if err := WriteTree(&buf, tr); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, "tasks=2 in=20 out=14") {
		t.Errorf("stage line should aggregate tasks:\n%s", text)
	}
	if strings.Count(text, "Map·Filter") != 1 {
		t.Errorf("task spans should not be printed individually:\n%s", text)
	}
}

// TestTracerWithEngine is the integration check: trace a real dataflow
// job and reconcile span numbers against the engine's Stats.
func TestTracerWithEngine(t *testing.T) {
	tr := New()
	ctx, err := engine.NewContext(engine.Config{Parallelism: 4, Observer: tr})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]int, 200)
	for i := range data {
		data[i] = i % 20
	}
	g := engine.GroupByKey(engine.Map(engine.Parallelize(ctx, data, 4), func(v int) engine.Pair[int, int] { return engine.KV(v, v) }))
	groups, err := g.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 20 {
		t.Fatalf("groups = %d", len(groups))
	}
	tr.Finish()

	snap := ctx.Stats().Snapshot()
	var stages, tasks int64
	var shuffled int64
	for _, s := range tr.Spans() {
		switch s.Kind() {
		case engine.SpanStage:
			stages++
			if v, ok := s.AttrValue(engine.AttrRecordsShuffled); ok {
				shuffled += v
			}
		case engine.SpanTask:
			tasks++
		}
	}
	if stages != snap.Stages || tasks != snap.Tasks {
		t.Errorf("tracer saw stages=%d tasks=%d, Stats %d/%d", stages, tasks, snap.Stages, snap.Tasks)
	}
	if shuffled != snap.RecordsShuffled {
		t.Errorf("tracer stage shuffled sum = %d, Stats = %d", shuffled, snap.RecordsShuffled)
	}
	if got := tr.CountValue(engine.MetricRecordsRead); got != snap.RecordsRead {
		t.Errorf("tracer records read = %d, Stats = %d", got, snap.RecordsRead)
	}

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("engine trace fails validation: %v", err)
	}
}
