package engine

import (
	"math/rand"
	"testing"
)

// intPairs returns n int→int pairs over n/20 keys.
func intPairs(n int) []Pair[int, int] {
	r := rand.New(rand.NewSource(31))
	pairs := make([]Pair[int, int], n)
	for i := range pairs {
		pairs[i] = KV(r.Intn(n/20), i)
	}
	return pairs
}

// spillAllocsPerRecord runs op over 20 000 int→int pairs under a budget
// that forces at least three flushes per destination, checks that it
// spilled, and returns its heap allocations per input record. The pairs
// form one source partition, so one task owns the budget and the flushes,
// and with them the run files and their allocations, do not depend on how
// tasks interleave.
func spillAllocsPerRecord(t *testing.T, op func(*Dataset[Pair[int, int]]) error) float64 {
	t.Helper()
	const records, parallelism, budget = 20000, 2, 128 << 10
	pairs := intPairs(records)
	ctx, dir := budgetCtx(t, parallelism, budget)
	run := func() {
		if err := op(Parallelize(ctx, pairs, 1)); err != nil {
			t.Fatal(err)
		}
	}
	run()
	sn := ctx.Stats().Snapshot()
	if sn.BytesSpilled == 0 || sn.SpillRuns < 3*parallelism {
		t.Fatalf("want at least three flushes per destination under a %d-byte budget, stats: %+v", budget, sn)
	}
	allocs := testing.AllocsPerRun(5, run)
	assertBudgetQuiescent(t, ctx)
	assertNoLeftovers(t, dir)
	return allocs / records
}

// TestGroupByKeySpillAllocsPerRecord pins the spill regime's allocations:
// records are encoded into reused slabs and each destination's values into
// one slice, so the count scales with runs and groups, not with records.
func TestGroupByKeySpillAllocsPerRecord(t *testing.T) {
	got := spillAllocsPerRecord(t, func(d *Dataset[Pair[int, int]]) error {
		_, err := GroupByKey(d).Count()
		return err
	})
	if got > 0.03 {
		t.Fatalf("GroupByKey under a budget: %.3f allocations per record, want at most 0.03", got)
	}
}

// TestReduceByKeySpillAllocsPerRecord is the same pin for ReduceByKey.
func TestReduceByKeySpillAllocsPerRecord(t *testing.T) {
	got := spillAllocsPerRecord(t, func(d *Dataset[Pair[int, int]]) error {
		_, err := ReduceByKey(d, func(a, b int) int { return a + b }).Count()
		return err
	})
	if got > 0.03 {
		t.Fatalf("ReduceByKey under a budget: %.3f allocations per record, want at most 0.03", got)
	}
}
