package core

import (
	"testing"

	"bigdansing/internal/engine"
	"bigdansing/internal/model"
)

// TestChainedIterates reproduces the Listing 3 / Figure 4 flow: dataset D1
// flows as labels S and T, an Iterate produces stream M from them, and a
// second Iterate combines M with D2's stream W before Detect.
func TestChainedIterates(t *testing.T) {
	s1 := model.MustParseSchema("id:int,grp,val:float")
	d1 := model.NewRelation("D1", s1)
	d1.Append(
		model.NewTuple(1, model.I(1), model.S("a"), model.F(10)),
		model.NewTuple(2, model.I(2), model.S("a"), model.F(20)),
		model.NewTuple(3, model.I(3), model.S("b"), model.F(30)),
	)
	s2 := model.MustParseSchema("id:int,grp,cap:float")
	d2 := model.NewRelation("D2", s2)
	d2.Append(
		model.NewTuple(100, model.I(100), model.S("a"), model.F(15)),
		model.NewTuple(101, model.I(101), model.S("b"), model.F(50)),
	)

	grpKey := func(tp model.Tuple) model.Value { return tp.Cell(1) }

	job := NewJob("Example Job")
	job.AddInput(d1, "S", "T")
	job.AddInput(d2, "W")
	job.AddBlock(grpKey, "S")
	job.AddBlock(grpKey, "T")
	// Iterate 1: per group, keep only the max-val unit of S∪T -> stream M.
	job.AddIterate(func(blocks [][]model.Tuple) []Item {
		var best *model.Tuple
		for _, bag := range blocks {
			for i := range bag {
				if best == nil || bag[i].Cell(2).Float() > best.Cell(2).Float() {
					best = &bag[i]
				}
			}
		}
		if best == nil {
			return nil
		}
		return []Item{Single(*best)}
	}, "M", "S", "T")
	// Stream M is blocked by group and joined with W's groups.
	job.AddBlock(grpKey, "M")
	job.AddBlock(grpKey, "W")
	// Iterate 2: pair each max unit with its group's cap row -> stream V.
	job.AddIterate(PairsAcross, "V", "M", "W")
	job.AddDetect(func(it Item) []model.Violation {
		m, w := it.Left(), it.Right()
		if m.Cell(2).Float() <= w.Cell(2).Float() {
			return nil
		}
		return []model.Violation{model.NewViolation("cap",
			model.NewCell(m.ID, 2, m.Cell(2)),
			model.NewCell(w.ID, 2, w.Cell(2)))}
	}, "V")
	job.AddGenFix(func(v model.Violation) []model.Fix {
		return []model.Fix{model.NewCellFix(v.Cells[0], model.OpLE, v.Cells[1])}
	}, "V")

	lp, err := BuildPlan(job)
	if err != nil {
		t.Fatal(err)
	}
	p := lp.Pipelines[0]
	if len(p.Branches) != 2 {
		t.Fatalf("branches = %d", len(p.Branches))
	}
	if p.Branches[0].Derived == nil {
		t.Fatal("branch M should be derived from the first Iterate")
	}
	if len(p.Branches[0].Derived.Branches) != 2 {
		t.Errorf("derived branches = %d, want 2 (S and T)", len(p.Branches[0].Derived.Branches))
	}
	if p.Branches[1].Dataset != "W" {
		t.Errorf("second branch = %q", p.Branches[1].Dataset)
	}

	ctx := engine.New(4)
	res, err := RunJobSpark(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	// Group a: max val 20 > cap 15 -> violation. Group b: 30 <= 50 -> none.
	if len(res.Violations) != 1 {
		t.Fatalf("violations = %d: %v", len(res.Violations), res.Violations)
	}
	ids := res.Violations[0].TupleIDs()
	if ids[0] != 2 || ids[1] != 100 {
		t.Errorf("violating tuples = %v, want {2,100}", ids)
	}
}

// TestChainedIterateCycleDetected rejects a label cycle.
func TestChainedIterateCycleDetected(t *testing.T) {
	rel := exampleTax()
	job := NewJob("cycle")
	job.AddInput(rel, "S")
	job.AddIterate(Singles, "A", "B")
	job.AddIterate(Singles, "B", "A")
	job.AddDetect(func(Item) []model.Violation { return nil }, "A")
	if _, err := BuildPlan(job); err == nil {
		t.Fatal("cyclic labels should be rejected")
	}
}

// TestDerivedStreamUnkeyedFallback runs a two-branch custom Iterate where
// one side is unkeyed: the executor materializes the bags and calls the
// Iterate once.
func TestDerivedStreamUnkeyedFallback(t *testing.T) {
	rel := exampleTax()
	job := NewJob("unkeyed")
	job.AddInput(rel, "S", "T")
	job.AddBlock(func(tp model.Tuple) model.Value { return tp.Cell(3) }, "S")
	// T stays unkeyed.
	called := 0
	job.AddIterate(func(blocks [][]model.Tuple) []Item {
		called++
		if len(blocks) != 2 {
			t.Errorf("blocks = %d", len(blocks))
		}
		return nil
	}, "V", "S", "T")
	job.AddDetect(func(Item) []model.Violation { return nil }, "V")
	ctx := engine.New(2)
	if _, err := RunJobSpark(ctx, job); err != nil {
		t.Fatal(err)
	}
	if called != 1 {
		t.Errorf("iterate calls = %d, want 1 (single materialized invocation)", called)
	}
}
