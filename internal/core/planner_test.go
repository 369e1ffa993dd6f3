package core

import (
	"strings"
	"testing"

	"bigdansing/internal/model"
)

func mustPlanRule(t *testing.T, r *Rule, rel *model.Relation) *PhysicalPlan {
	t.Helper()
	lp, err := PlanRule(r, rel)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := NewPlanner().Plan(lp)
	if err != nil {
		t.Fatal(err)
	}
	return pp
}

// TestStaticPlannerMatchesLegacyChoices pins the static model to the legacy
// rule-shape switch over every pipeline shape.
func TestStaticPlannerMatchesLegacyChoices(t *testing.T) {
	rel := exampleTax()
	cases := []struct {
		name string
		rule *Rule
		want IterImpl
	}{
		{"blocked symmetric", fdRule(), IterUniquePairs},
		{"order conds", dcRule(), IterOCJoin},
		{"unary", &Rule{
			ID: "u", Unary: true,
			Detect: func(Item, *Output) {},
		}, IterSingles},
	}
	for _, c := range cases {
		pp := mustPlanRule(t, c.rule, rel)
		p := pp.Pipelines[0]
		if p.Impl != c.want {
			t.Errorf("%s: impl = %v, want %v", c.name, p.Impl, c.want)
		}
	}
}

// TestOpsMarkersForOCJoinAndCoBlock covers the Ops-rendering fix: the
// OCJoin and CoBlock paths now name their partitioning operators.
func TestOpsMarkersForOCJoinAndCoBlock(t *testing.T) {
	rel := exampleTax()

	pp := mustPlanRule(t, dcRule(), rel)
	ops := strings.Join(pp.Pipelines[0].Ops, " -> ")
	if !strings.Contains(ops, "RangePartition") {
		t.Errorf("OCJoin ops missing RangePartition: %s", ops)
	}

	co := &Rule{
		ID:         "co",
		Block:      func(t model.Tuple) model.Value { return t.Cell(1) },
		BlockRight: func(t model.Tuple) model.Value { return t.Cell(2) },
		Detect:     func(Item, *Output) {},
	}
	pp = mustPlanRule(t, co, rel)
	ops = strings.Join(pp.Pipelines[0].Ops, " -> ")
	if pp.Pipelines[0].Impl != IterCoBlockPairs {
		t.Fatalf("impl = %v, want CoBlock", pp.Pipelines[0].Impl)
	}
	if !strings.Contains(ops, "Co-Block") {
		t.Errorf("CoBlock ops missing Co-Block: %s", ops)
	}
}
