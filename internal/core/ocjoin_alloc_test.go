package core_test

import (
	"testing"

	"bigdansing/internal/core"
	"bigdansing/internal/engine"
	"bigdansing/internal/join"
)

// TestDetectDCAllocsPerViolation pins what OCJoin detection allocates per
// violation of φ2: a violation's list and cells and its fix slab, plus
// a share of the per-task and per-partition state — no pair list and
// no pair Item per pair.
func TestDetectDCAllocsPerViolation(t *testing.T) {
	const maxAllocsPerViolation = 3.1
	rule, rel := phi2TaxB(t, 400)
	ctx := engine.New(2)
	violations := 0
	allocs := testing.AllocsPerRun(5, func() {
		res, err := core.DetectRule(ctx, rule, rel)
		if err != nil {
			t.Fatal(err)
		}
		violations = len(res.Violations)
	})
	if violations == 0 {
		t.Fatal("φ2 found no violations")
	}
	if per := allocs / float64(violations); per > maxAllocsPerViolation {
		t.Errorf("φ2 detection made %.0f allocations for %d violations, %.2f each, want at most %.2f",
			allocs, violations, per, maxAllocsPerViolation)
	}
}

// TestJoinDetectFitsTheJoinCount checks that every OCJoin task's fix sets
// fit in the capacity the join's own count gave them: the slice is
// allocated once and never grows.
func TestJoinDetectFitsTheJoinCount(t *testing.T) {
	rule, rel := phi2TaxB(t, 400)
	ds, err := join.OCJoin(engine.Parallelize(engine.New(2), rel.Tuples, 0), rule.OrderConds, 0)
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := ds.Collect()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, tk := range tasks {
		sets, pairs := core.JoinDetect(rule.Detect, tk)
		if bound := tk.Bound(); cap(sets) != bound || int64(bound) != pairs {
			t.Errorf("task %d: %d pairs gave %d fix sets in capacity %d, join count %d", i, pairs, len(sets), cap(sets), bound)
		}
		total += len(sets)
	}
	if total == 0 {
		t.Fatal("φ2 found no violations")
	}
}
