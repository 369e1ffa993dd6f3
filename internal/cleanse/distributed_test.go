package cleanse

import (
	"testing"

	"bigdansing/internal/core"
	"bigdansing/internal/engine"
	"bigdansing/internal/mapred"
	"bigdansing/internal/repair"
)

// TestCleanWithDistributedEquivalenceClass runs the full cleansing loop
// with the natively distributed equivalence-class algorithm (Section 5.2)
// plugged in as the repair algorithm, inside the parallel black-box
// wrapper — the full distributed stack of the paper.
func TestCleanWithDistributedEquivalenceClass(t *testing.T) {
	eng, err := mapred.New(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	diskCtx, err := engine.NewContext(engine.Config{Parallelism: 4, Exchange: eng})
	if err != nil {
		t.Fatal(err)
	}
	defer diskCtx.Close()

	rel := dirtyTax(8, 8, 2)
	cleaner := mustCleaner(t, engine.New(4), []*core.Rule{fdZipCity(t, rel)},
		WithAlgorithm(&repair.DistributedEquivalenceClass{Ctx: diskCtx}),
		WithParallelRepair(repair.Options{}))
	res, err := cleaner.Clean(rel)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report().RemainingViolations != 0 {
		t.Fatalf("remaining = %d", res.Report().RemainingViolations)
	}
	if eng.Stats().BytesSpilled() == 0 || eng.Stats().BytesRead() == 0 {
		t.Error("the repair jobs never reached the disk backend")
	}

	// Must produce the same clean instance as the centralized algorithm.
	centralized := mustCleaner(t, engine.New(4), []*core.Rule{fdZipCity(t, rel)},
		WithAlgorithm(&repair.EquivalenceClass{}))
	want, err := centralized.Clean(rel)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Clean.Tuples {
		if !want.Clean.Tuples[i].Cell(2).Equal(res.Clean.Tuples[i].Cell(2)) {
			t.Errorf("tuple %d: distributed %v vs centralized %v",
				i, res.Clean.Tuples[i].Cell(2), want.Clean.Tuples[i].Cell(2))
		}
	}
	if res.Report().Iterations != want.Report().Iterations {
		t.Errorf("iterations: distributed %d vs centralized %d", res.Report().Iterations, want.Report().Iterations)
	}
}
