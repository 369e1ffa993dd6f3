package repair

import (
	"fmt"
	"testing"

	"bigdansing/internal/model"
)

func TestSamplingRepairResolvesViolations(t *testing.T) {
	fs := []model.FixSet{
		fdFixSet("fd", 1, 2, "LA", "SF"),
		fdFixSet("fd", 1, 3, "LA", "LA"),
	}
	algo := &Sampling{Samples: 5, Seed: 3}
	as, err := algo.Repair(fs)
	if err != nil {
		t.Fatal(err)
	}
	// All three cells end with one value: at most 2 updates (majority LA
	// needs only one).
	if len(as) == 0 || len(as) > 2 {
		t.Fatalf("assignments = %v", as)
	}
	vals := map[string]model.Value{
		"1#2": model.S("LA"), "2#2": model.S("SF"), "3#2": model.S("LA"),
	}
	for _, a := range as {
		vals[a.Key()] = a.Value
	}
	if !vals["1#2"].Equal(vals["2#2"]) || !vals["2#2"].Equal(vals["3#2"]) {
		t.Errorf("class not unified: %v", vals)
	}
}

func TestSamplingConvergesToMinCost(t *testing.T) {
	// Majority value LA (3 of 4 cells): the min-cost repair changes 1 cell.
	// With enough samples the sampler finds it.
	c := func(id int64, v string) model.Cell { return model.NewCell(id, 2, model.S(v)) }
	link := func(a, b model.Cell) model.FixSet {
		return model.FixSet{
			Violation: model.NewViolation("fd", a, b),
			Fixes:     []model.Fix{model.NewCellFix(a, model.OpEQ, b)},
		}
	}
	cells := []model.Cell{c(1, "LA"), c(2, "LA"), c(3, "LA"), c(4, "SF")}
	var fs []model.FixSet
	for i := 1; i < len(cells); i++ {
		fs = append(fs, link(cells[0], cells[i]))
	}
	algo := &Sampling{Samples: 50, Seed: 7}
	as, err := algo.Repair(fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 1 || as[0].TupleID != 4 || as[0].Value != model.S("LA") {
		t.Errorf("min-cost sample should flip only t4 to LA: %v", as)
	}
}

func TestSamplingDeterministicBySeed(t *testing.T) {
	fs := []model.FixSet{fdFixSet("fd", 1, 2, "A", "B")}
	a1, _ := (&Sampling{Samples: 1, Seed: 5}).Repair(fs)
	a2, _ := (&Sampling{Samples: 1, Seed: 5}).Repair(fs)
	if fmt.Sprint(a1) != fmt.Sprint(a2) {
		t.Error("same seed should reproduce")
	}
}

func TestSamplingRespectsConstants(t *testing.T) {
	c1 := model.NewCell(1, 2, model.S("SF"))
	fs := []model.FixSet{{
		Violation: model.NewViolation("cfd", c1),
		Fixes:     []model.Fix{model.NewConstFix(c1, model.OpEQ, model.S("LA"))},
	}}
	as, err := (&Sampling{Samples: 10, Seed: 2}).Repair(fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 1 || as[0].Value != model.S("LA") {
		t.Errorf("constant should dominate: %v", as)
	}
}

func TestSamplingWorksInsideParallelWrapper(t *testing.T) {
	var fs []model.FixSet
	for i := int64(0); i < 20; i += 2 {
		fs = append(fs, fdFixSet("fd", i, i+1, "X", fmt.Sprintf("Y%d", i)))
	}
	as, rep, err := RepairParallel(fs, &Sampling{Samples: 9, Seed: 4}, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Components != 10 {
		t.Errorf("components = %d", rep.Components)
	}
	if len(as) != 10 {
		t.Errorf("one repair per pair expected, got %d", len(as))
	}
}
