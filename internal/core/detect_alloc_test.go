package core_test

import (
	"fmt"
	"testing"

	"bigdansing/internal/core"
	"bigdansing/internal/engine"
	"bigdansing/internal/join"
	"bigdansing/internal/model"
	"bigdansing/internal/rules"
)

// Detection allocates per group, not per violation: each per-group
// detector emits into one output whose cells, fixes and offsets are three
// slabs. These pins count what one group, one OCJoin task and one φ2 run
// allocate. The ones that run the FD kernel go through its pooled scratch,
// which the race detector partly drops, so they skip under -race.

// phi2Tasks is φ2's OCJoin tasks over rows TaxB rows.
func phi2Tasks(t *testing.T, rows int) (*core.Rule, []join.Task) {
	t.Helper()
	rule, rel := phi2TaxB(t, rows)
	ds, err := join.OCJoin(engine.Parallelize(engine.New(2), rel.Tuples, 0), rule.OrderConds, 0)
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := ds.Collect()
	if err != nil {
		t.Fatal(err)
	}
	return rule, tasks
}

// TestDetectDCAllocsPerViolation pins what OCJoin detection allocates per
// violation of φ2: each task's three slabs, the result's two arrays and
// the per-task and per-partition state — nothing per violation.
func TestDetectDCAllocsPerViolation(t *testing.T) {
	const maxAllocsPerViolation = 0.1
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
	per := allocs / float64(violations)
	t.Logf("φ2 detection: %.0f allocations for %d violations, %.3f each", allocs, violations, per)
	if per > maxAllocsPerViolation {
		t.Errorf("φ2 detection made %.0f allocations for %d violations, %.3f each, want at most %.2f",
			allocs, violations, per, maxAllocsPerViolation)
	}
}

// TestJoinDetectFitsTheJoinCount checks that every OCJoin task's cells slab
// is sized once from the join's own count — four cells for each of its
// pairs, all of which violate φ2 — and never grows.
func TestJoinDetectFitsTheJoinCount(t *testing.T) {
	rule, tasks := phi2Tasks(t, 400)
	total := 0
	for i, tk := range tasks {
		var out core.Output
		pairs := core.JoinDetect(rule.Detect, tk, &out)
		bound := tk.Bound()
		if int64(bound) != pairs || out.Len() != bound {
			t.Errorf("task %d: %d pairs gave %d violations, join count %d", i, pairs, out.Len(), bound)
		}
		if want := 4 * bound; out.Len() > 0 && out.CellsCap() != want {
			t.Errorf("task %d: cells slab of capacity %d for %d violations, want %d", i, out.CellsCap(), out.Len(), want)
		}
		total += out.Len()
	}
	if total == 0 {
		t.Fatal("φ2 found no violations")
	}
}

// TestJoinDetectAllocsPerTask: Detect plus GenFix over one φ2 OCJoin task
// allocates the same few objects whatever the task's pair count. The race
// detector's instrumentation adds an allocation of its own, so under -race
// only the sameness is checked.
func TestJoinDetectAllocsPerTask(t *testing.T) {
	const maxAllocsPerTask = 6 // the bitmaps of the join's two sweeps (count, visit), the reused pair and the three slabs
	rule, tasks := phi2Tasks(t, 400)
	most, first := 0, -1.0
	var out core.Output
	for i, tk := range tasks {
		allocs := testing.AllocsPerRun(3, func() {
			out = core.Output{}
			core.JoinDetect(rule.Detect, tk, &out)
			out.GenFix(rule.GenFix)
		})
		if out.Len() == 0 {
			continue
		}
		if first < 0 {
			first = allocs
		}
		if allocs != first || (!raceEnabled && allocs > maxAllocsPerTask) {
			t.Errorf("task %d: %.0f allocations for %d violations, want %.0f as for every task, at most %d", i, allocs, out.Len(), first, maxAllocsPerTask)
		}
		most = max(most, out.Len())
	}
	if most < 1000 {
		t.Fatalf("the largest task has %d violations, want a task with at least 1000", most)
	}
}

// TestFDKernelAllocsPerBlock: the FD kernel plus GenFix over one block
// allocates its three slabs, for 10 violations as for 1 000.
func TestFDKernelAllocsPerBlock(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops the kernel's pooled scratch")
	}
	const maxAllocsPerBlock = 3
	schema := model.MustParseSchema("zipcode:int,city")
	fd, err := rules.ParseFD("phi", "zipcode -> city")
	if err != nil {
		t.Fatal(err)
	}
	rule, err := fd.Compile(schema)
	if err != nil {
		t.Fatal(err)
	}
	var out core.Output
	got := map[int]float64{}
	for _, violations := range []int{10, 1000} {
		// One dissenting city against the rest: one violation per other member.
		us := make([]model.Tuple, violations+1)
		for i := range us {
			us[i] = model.NewTuple(int64(i), model.I(1), model.S(fmt.Sprint(min(i, 1))))
		}
		got[violations] = testing.AllocsPerRun(10, func() {
			out = core.Output{}
			rule.DetectBlock(us, false, &out)
			out.GenFix(rule.GenFix)
		})
		if out.Len() != violations {
			t.Fatalf("%d-member block: %d violations, want %d", len(us), out.Len(), violations)
		}
	}
	if got[10] != got[1000] || got[1000] > maxAllocsPerBlock {
		t.Errorf("allocations per block: %.0f for 10 violations, %.0f for 1 000; want equal and at most %d", got[10], got[1000], maxAllocsPerBlock)
	}
}
