package cleanse

import (
	"testing"

	"bigdansing/internal/core"
	"bigdansing/internal/engine"
	"bigdansing/internal/repair"
)

// TestIncrementalCleanMatchesFull runs the same cleansing job with and
// without incremental detection; the repaired instances must be identical.
func TestIncrementalCleanMatchesFull(t *testing.T) {
	rel := dirtyTax(15, 8, 2)
	run := func(incremental bool) *Result {
		opts := []Option{WithParallelRepair(repair.Options{})}
		if incremental {
			opts = append(opts, WithIncremental())
		}
		cleaner := mustCleaner(t, engine.New(4), []*core.Rule{fdZipCity(t, rel)}, opts...)
		res, err := cleaner.Clean(rel)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	full := run(false)
	inc := run(true)
	if full.Report().RemainingViolations != inc.Report().RemainingViolations {
		t.Fatalf("remaining: full %d vs incremental %d", full.Report().RemainingViolations, inc.Report().RemainingViolations)
	}
	if full.Report().Iterations != inc.Report().Iterations {
		t.Errorf("iterations: full %d vs incremental %d", full.Report().Iterations, inc.Report().Iterations)
	}
	for i := range full.Clean.Tuples {
		for c := range full.Clean.Tuples[i].Cells {
			if !full.Clean.Tuples[i].Cell(c).Equal(inc.Clean.Tuples[i].Cell(c)) {
				t.Fatalf("tuple %d col %d differs: %v vs %v", i, c,
					full.Clean.Tuples[i].Cell(c), inc.Clean.Tuples[i].Cell(c))
			}
		}
	}
	if inc.Report().RemainingViolations != 0 {
		t.Errorf("incremental cleaning should converge, %d left", inc.Report().RemainingViolations)
	}
}

// TestIncrementalCleanMultiRule exercises incremental maintenance with two
// interacting FDs (repairs from one rule dirtying the other's blocks).
func TestIncrementalCleanMultiRule(t *testing.T) {
	rel := dirtyTax(10, 6, 2)
	// Second rule: zipcode -> state (all states equal here, so it never
	// fires, but its caches must stay consistent through the updates).
	fd2 := fdZipCity(t, rel)
	fd2.ID = "phi1b"
	cleaner := mustCleaner(t, engine.New(4), []*core.Rule{fdZipCity(t, rel), fd2}, WithIncremental())
	res, err := cleaner.Clean(rel)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report().RemainingViolations != 0 {
		t.Errorf("remaining = %d", res.Report().RemainingViolations)
	}
}
