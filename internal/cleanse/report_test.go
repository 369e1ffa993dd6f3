package cleanse

import (
	"testing"

	"bigdansing/internal/core"
	"bigdansing/internal/engine"
	"bigdansing/internal/model"
	"bigdansing/internal/repair"
	"bigdansing/internal/trace"
)

// TestResultReport: Report() must describe the loop and carry the engine
// snapshot and per-round repair reports, so callers need only one struct
// instead of poking three packages.
func TestResultReport(t *testing.T) {
	rel := dirtyTax(6, 6, 2)
	cleaner, err := NewCleaner(engine.New(4), []*core.Rule{fdZipCity(t, rel)},
		WithParallelRepair(repair.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cleaner.Clean(rel)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report()
	if rep.Iterations == 0 || rep.InitialViolations == 0 || rep.UpdatesApplied == 0 ||
		rep.Flush != 1 || rep.Tuples != res.Clean.Len() {
		t.Errorf("Report does not describe the run: %+v", rep)
	}
	if rep.Engine.Stages == 0 || rep.Engine.Tasks == 0 || rep.Engine.RecordsRead == 0 {
		t.Errorf("Report.Engine should carry the dataflow snapshot: %+v", rep.Engine)
	}
	if len(rep.RepairRounds) == 0 {
		t.Error("Report.RepairRounds empty for a parallel-repair run")
	}
	for i, rr := range rep.RepairRounds {
		if rr.Components <= 0 {
			t.Errorf("round %d: components = %d", i, rr.Components)
		}
	}
}

// TestWithObserverTracesWholeRun: an Observer installed via the cleanse
// option must see every layer — rounds, plan compilation, pipelines,
// engine stages and repair phases — and leave no span open. It is folded
// into the engine configuration whichever option comes first, and rejected
// next to a caller-supplied context, whose observer is its own.
func TestWithObserverTracesWholeRun(t *testing.T) {
	rel := dirtyTax(6, 6, 2)
	// The scoped copy of the FD is not block-incremental: the detector
	// re-plans it in full, so the run compiles plans as well.
	scoped := fdZipCity(t, rel)
	scoped.ID = "phi1-scoped"
	scoped.Scope = func(tp model.Tuple) []model.Tuple { return []model.Tuple{tp} }
	rules := []*core.Rule{fdZipCity(t, rel), scoped}
	if _, err := NewCleaner(engine.New(4), rules, WithObserver(trace.New())); err == nil {
		t.Error("WithObserver next to a caller-supplied context should be rejected")
	}
	early := trace.New()
	c, err := NewCleaner(nil, rules, WithObserver(early), WithEngineConfig(engine.Config{Parallelism: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Clean(rel); err != nil {
		t.Fatal(err)
	}
	if early.Finish(); len(early.Spans()) == 0 {
		t.Error("WithObserver before WithEngineConfig recorded nothing")
	}

	tr := trace.New()
	cleaner, err := NewCleaner(nil, rules,
		WithParallelRepair(repair.Options{}),
		WithEngineConfig(engine.Config{Parallelism: 4}),
		WithObserver(tr))
	if err != nil {
		t.Fatal(err)
	}
	defer cleaner.Close()
	res, err := cleaner.Clean(rel)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report().RemainingViolations != 0 {
		t.Fatalf("remaining violations: %d", res.Report().RemainingViolations)
	}
	tr.Finish()
	kinds := map[engine.SpanKind]int{}
	for _, s := range tr.Spans() {
		kinds[s.Kind()]++
	}
	for _, k := range []engine.SpanKind{
		engine.SpanRound, engine.SpanPlan, engine.SpanPipeline,
		engine.SpanStage, engine.SpanTask, engine.SpanRepair,
	} {
		if kinds[k] == 0 {
			t.Errorf("no %v spans recorded (kinds: %v)", k, kinds)
		}
	}
	if kinds[engine.SpanRound] != res.Report().Iterations {
		t.Errorf("round spans = %d, iterations = %d", kinds[engine.SpanRound], res.Report().Iterations)
	}
	// Stats kept counting alongside the tracer.
	if res.Report().Engine.RecordsRead == 0 {
		t.Error("Stats stopped counting while traced")
	}
}
