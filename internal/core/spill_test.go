package core

import (
	"os"
	"sync/atomic"
	"testing"

	"bigdansing/internal/datagen"
	"bigdansing/internal/engine"
	"bigdansing/internal/model"
)

// End-to-end out-of-core cleansing: with a memory budget far below the
// shuffle working set, FD and DC detection must spill to disk yet produce
// exactly the violations and fixes of an unbounded run, never reserve past
// the budget, and leave no spill files behind.

// spillBudget is well below the encoded size of the generated datasets'
// shuffles, so every wide operator is forced out of core.
const spillBudget = 64 << 10

func violationCounts(vs []model.Violation) map[model.ViolationKey]int {
	m := make(map[model.ViolationKey]int, len(vs))
	for _, v := range vs {
		m[v.MapKey()]++
	}
	return m
}

// fixKey is a fix's comparable content: its operator and operands.
type fixKey struct {
	op          model.Op
	rightIsCell bool
	left, right model.Cell
	konst       model.Value
}

// fixCounts counts every possible fix of a result.
func fixCounts(r *DetectResult) map[fixKey]int {
	m := map[fixKey]int{}
	for _, fs := range r.FixSets {
		for _, f := range fs.Fixes {
			m[fixKey{f.Op, f.RightIsCell, f.Left(), f.RightCell(), f.Const()}]++
		}
	}
	return m
}

// runDetect executes the rules over rel on a fresh context, returning the
// result and the context for stats inspection.
func runDetect(t *testing.T, cfg engine.Config, rules []*Rule, rel *model.Relation) (*DetectResult, *engine.Context) {
	t.Helper()
	ctx := mustContext(t, cfg)
	res, err := DetectRules(ctx, rules, rel)
	if err != nil {
		t.Fatal(err)
	}
	return res, ctx
}

func assertSameOutcome(t *testing.T, want, got *DetectResult) {
	t.Helper()
	// The external shuffle visits groups in merge order, not first-seen
	// order, so results are compared as multisets.
	wv, gv := violationCounts(want.Violations), violationCounts(got.Violations)
	if len(wv) != len(gv) || len(want.Violations) != len(got.Violations) {
		t.Fatalf("violations diverged: %d distinct/%d total vs %d distinct/%d total",
			len(gv), len(got.Violations), len(wv), len(want.Violations))
	}
	for k, n := range wv {
		if gv[k] != n {
			t.Fatalf("violation %v: count %d != %d", k, gv[k], n)
		}
	}
	wf, gf := fixCounts(want), fixCounts(got)
	if len(wf) != len(gf) {
		t.Fatalf("fix sets diverged: %d distinct vs %d distinct", len(gf), len(wf))
	}
	for f, n := range wf {
		if gf[f] != n {
			t.Fatalf("fix %v: count %d != %d", f, gf[f], n)
		}
	}
}

func assertSpilledWithinBudget(t *testing.T, ctx *engine.Context, budget int64, dir string) {
	t.Helper()
	sn := ctx.Stats().Snapshot()
	if sn.BytesSpilled == 0 || sn.SpillRuns == 0 {
		t.Fatalf("budget %d should have forced spilling, stats: %+v", budget, sn)
	}
	if sn.PeakReservedBytes > budget {
		t.Fatalf("peak reserved %d exceeds budget %d", sn.PeakReservedBytes, budget)
	}
	if r := ctx.MemoryManager().Reserved(); r != 0 {
		t.Fatalf("leaked reservation: %d bytes", r)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("leftover spill files in %s: %d entries", dir, len(entries))
	}
}

func TestFDDetectionOutOfCoreMatchesUnbounded(t *testing.T) {
	tr := datagen.TaxA(4000, 0.05, 1)

	want, _ := runDetect(t, engine.Config{Parallelism: 4}, []*Rule{fdRule()}, tr.Dirty)
	if len(want.Violations) == 0 {
		t.Fatal("generator produced no FD violations; test is vacuous")
	}

	dir := t.TempDir()
	cfg := engine.Config{Parallelism: 4, MemoryBudgetBytes: spillBudget, SpillDir: dir}
	got, ctx := runDetect(t, cfg, []*Rule{fdRule()}, tr.Dirty)

	assertSpilledWithinBudget(t, ctx, spillBudget, dir)
	assertSameOutcome(t, want, got)
}

func TestDCDetectionOutOfCoreMatchesUnbounded(t *testing.T) {
	tr := datagen.TaxB(1500, 0.05, 2)

	want, _ := runDetect(t, engine.Config{Parallelism: 4}, []*Rule{dcRule()}, tr.Dirty)
	if len(want.Violations) == 0 {
		t.Fatal("generator produced no DC violations; test is vacuous")
	}

	dir := t.TempDir()
	cfg := engine.Config{Parallelism: 4, MemoryBudgetBytes: spillBudget, SpillDir: dir}
	got, ctx := runDetect(t, cfg, []*Rule{dcRule()}, tr.Dirty)

	assertSpilledWithinBudget(t, ctx, spillBudget, dir)
	assertSameOutcome(t, want, got)
}

func TestCombinedRulesOutOfCoreMatchesUnbounded(t *testing.T) {
	// Both rule shapes through one consolidated plan, the Table-2 style
	// mixed workload: FD via blocking GroupByKey, DC via OCJoin's range
	// partitioning — every wide operator class spills in one run.
	tr := datagen.TaxB(1200, 0.08, 3)
	rules := []*Rule{fdRule(), dcRule()}

	want, _ := runDetect(t, engine.Config{Parallelism: 4}, rules, tr.Dirty)
	if len(want.Violations) == 0 {
		t.Fatal("no violations; test is vacuous")
	}

	dir := t.TempDir()
	cfg := engine.Config{Parallelism: 4, MemoryBudgetBytes: spillBudget, SpillDir: dir}
	got, ctx := runDetect(t, cfg, rules, tr.Dirty)

	assertSpilledWithinBudget(t, ctx, spillBudget, dir)
	assertSameOutcome(t, want, got)
}

// TestDetectPanicUnderBudgetCleansUp drives the operator-panic path through
// the full stack: a Detect that panics mid-stream while the shuffle is
// spilled must surface as an error, release every reservation, and leave
// the spill directory empty.
func TestDetectPanicUnderBudgetCleansUp(t *testing.T) {
	tr := datagen.TaxA(3000, 0.05, 4)
	bad := fdRule()
	// Parallel Detect tasks share the counter.
	var calls atomic.Int64
	inner := bad.Detect
	bad.Detect = func(it Item, out *Output) {
		if calls.Add(1) > 500 {
			panic("detect exploded")
		}
		inner(it, out)
	}

	dir := t.TempDir()
	ctx := mustContext(t, engine.Config{Parallelism: 4, MemoryBudgetBytes: spillBudget, SpillDir: dir})
	_, err := DetectRules(ctx, []*Rule{bad}, tr.Dirty)
	if err == nil {
		t.Fatal("expected the detect panic to surface as an error")
	}
	if r := ctx.MemoryManager().Reserved(); r != 0 {
		t.Fatalf("leaked reservation after panic: %d bytes", r)
	}
	entries, rerr := os.ReadDir(dir)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(entries) != 0 {
		t.Fatalf("leftover spill files after panic: %d entries", len(entries))
	}
}

// mustContext builds a context from a configuration the test knows is
// valid.
func mustContext(tb testing.TB, cfg engine.Config) *engine.Context {
	tb.Helper()
	ctx, err := engine.NewContext(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return ctx
}
