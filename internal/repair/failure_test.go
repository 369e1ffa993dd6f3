package repair

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"bigdansing/internal/model"
)

// failingAlgo errors or panics on demand — failure injection for the
// black-box wrapper.
type failingAlgo struct {
	err      error
	panicMsg string
	// failOn, when non-empty, only fails components containing that cell.
	failOn string
	inner  Algorithm
}

func (f *failingAlgo) Name() string { return "failing" }

func (f *failingAlgo) Repair(component []model.FixSet) ([]Assignment, error) {
	applies := f.failOn == ""
	for _, fs := range component {
		for _, c := range fs.Violation.Cells {
			if c.Key() == f.failOn {
				applies = true
			}
		}
	}
	if applies {
		if f.panicMsg != "" {
			panic(f.panicMsg)
		}
		if f.err != nil {
			return nil, f.err
		}
	}
	if f.inner != nil {
		return f.inner.Repair(component)
	}
	return nil, nil
}

func TestRepairParallelPropagatesAlgorithmError(t *testing.T) {
	fs := []model.FixSet{fdFixSet("fd", 1, 2, "A", "B")}
	boom := errors.New("algorithm exploded")
	_, _, err := RepairParallel(fs, &failingAlgo{err: boom}, Options{Parallelism: 2})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped algorithm error", err)
	}
}

func TestRepairParallelRecoversAlgorithmPanic(t *testing.T) {
	fs := []model.FixSet{fdFixSet("fd", 1, 2, "A", "B")}
	_, _, err := RepairParallel(fs, &failingAlgo{panicMsg: "kaboom"}, Options{Parallelism: 2})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("panic should surface as error, got %v", err)
	}
}

func TestRepairParallelPartialFailureFailsWhole(t *testing.T) {
	// Two components; the algorithm fails only on the one containing the
	// cell of tuple 10. The whole run must report the failure (no silent
	// partial repair).
	fs := []model.FixSet{
		fdFixSet("fd", 1, 2, "A", "B"),
		fdFixSet("fd", 10, 11, "C", "D"),
	}
	algo := &failingAlgo{err: errors.New("partial"), failOn: "10#2", inner: &EquivalenceClass{}}
	_, _, err := RepairParallel(fs, algo, Options{Parallelism: 4})
	if err == nil {
		t.Fatal("component failure should fail the run")
	}
}

func TestRepairSplitWithConflictingMasters(t *testing.T) {
	// Example 2's scenario: a big component split across workers where the
	// parts would choose different values for the shared cell. The
	// reconciliation protocol must keep exactly one value per cell and
	// count the conflicts it undid.
	var fs []model.FixSet
	// Star around cell (0,#2): half the leaves say "X", half say "Y"; the
	// shared hub cell must settle once.
	for i := int64(1); i <= 12; i++ {
		v := "X"
		if i%2 == 0 {
			v = "Y"
		}
		fs = append(fs, fdFixSet("fd", 0, i, v, fmt.Sprintf("leaf%d", i)))
	}
	as, rep, err := RepairParallel(fs, &EquivalenceClass{}, Options{
		Parallelism:      2,
		MaxComponentSize: 4,
		KParts:           3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SplitComponents != 1 {
		t.Fatalf("report = %+v", rep)
	}
	// One value per cell.
	seen := map[string]model.Value{}
	for _, a := range as {
		if prev, ok := seen[a.Key()]; ok && !prev.Equal(a.Value) {
			t.Fatalf("cell %s assigned both %v and %v", a.Key(), prev, a.Value)
		}
		seen[a.Key()] = a.Value
	}
}

func TestHypergraphLargeStarComponentFast(t *testing.T) {
	// A dirty cell conflicting with 20000 others: the indexed greedy must
	// finish quickly (the taxdc regression).
	hub := model.NewCell(0, 5, model.F(99))
	var fs []model.FixSet
	for i := int64(1); i <= 20000; i++ {
		other := model.NewCell(i, 5, model.F(float64(i%40)))
		fs = append(fs, model.FixSet{
			Violation: model.NewViolation("dc", hub, other),
			Fixes:     []model.Fix{model.NewCellFix(hub, model.OpLE, other)},
		})
	}
	algo := &Hypergraph{}
	as, err := algo.Repair(fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) == 0 {
		t.Fatal("hub must be repaired")
	}
	// The chosen value must satisfy the LE fix against the minimum.
	for _, a := range as {
		if a.TupleID == 0 && a.Value.Float() > 0 {
			t.Errorf("hub assigned %v; <= all others requires <= 0", a.Value)
		}
	}
}

func TestDistributedEquivalenceClassNoEngine(t *testing.T) {
	algo := &DistributedEquivalenceClass{}
	if _, err := algo.Repair([]model.FixSet{fdFixSet("fd", 1, 2, "A", "B")}); err == nil {
		t.Error("missing engine should error")
	}
}
