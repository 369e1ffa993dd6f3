package core_test

import (
	"fmt"
	"slices"
	"testing"

	"bigdansing/internal/core"
	"bigdansing/internal/engine"
	"bigdansing/internal/model"
	"bigdansing/internal/rules"
)

// The detect→repair hand-off reports each violation once, keeping its first
// occurrence — within a pipeline, across pipelines, and whatever the seen-set
// hash does.

func TestRepeatedViolationWithinPipeline(t *testing.T) {
	schema := model.MustParseSchema(oracleSchema)
	rel := oracleData(80, 7)
	ctx := engine.New(4)
	once, err := core.DetectRule(ctx, fd("zipcode -> city")(t, schema), rel)
	if err != nil {
		t.Fatal(err)
	}
	// FD.Compile drops the repeated RHS attribute of `zipcode -> city,
	// city`, so no repeat reaches the hand-off; the seen-set within one
	// pipeline is covered by TestDedupBoundary's UDF case.
	twice, err := core.DetectRule(ctx, fd("zipcode -> city, city")(t, schema), rel)
	if err != nil {
		t.Fatal(err)
	}
	if len(once.Violations) == 0 {
		t.Fatal("no violations to repeat")
	}
	if got, want := rendered(t, twice), rendered(t, once); !slices.Equal(got, want) {
		t.Fatalf("a repeated RHS attribute reports %d violations, want %d:\n got  %q\n want %q", len(got), len(want), got, want)
	}
}

func TestRepeatedViolationAcrossPipelines(t *testing.T) {
	schema := model.MustParseSchema(oracleSchema)
	rel := oracleData(80, 7)
	ctx := engine.New(4)
	withFixes := fd("zipcode -> city")(t, schema)
	noFixes := fd("zipcode -> city")(t, schema) // the same ID: the same violations
	noFixes.GenFix = nil
	want, err := core.DetectRule(ctx, withFixes, rel)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.DetectRules(ctx, []*core.Rule{withFixes, noFixes}, rel)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := rendered(t, got), rendered(t, want); !slices.Equal(g, w) {
		t.Fatalf("two pipelines with the same violations: got %d, want the first pipeline's %d:\n got  %q\n want %q", len(g), len(w), g, w)
	}
	for _, fs := range got.FixSets {
		if len(fs.Fixes) == 0 {
			t.Fatalf("%v kept the second pipeline's (fix-less) occurrence", fs.Violation)
		}
	}
}

func TestAssembleHashCollisions(t *testing.T) {
	// Lists with repeats within and across lists; the fix of a repeat names
	// its position, so keeping a later occurrence shows.
	var lists [][]model.FixSet
	for g := 0; g < 20; g++ {
		var sets []model.FixSet
		for i := 0; i < 10; i++ {
			a := model.NewCell(int64(g%4+i%4), 2, model.S("a"))
			b := model.NewCell(int64(100+i%3), 2, model.S("b"))
			v := model.NewViolation(fmt.Sprintf("r%d", i%2), a, b)
			if i%3 == 0 {
				v = model.NewViolation(v.RuleID, b, a) // the other orientation
			}
			at := model.NewCell(int64(g), i, model.I(int64(i)))
			sets = append(sets, model.FixSet{Violation: v, Fixes: []model.Fix{model.NewCellFix(a, model.OpEQ, at)}})
		}
		lists = append(lists, sets)
	}
	// The exact-key reference: first occurrence wins.
	var want []string
	seen := map[model.ViolationKey]bool{}
	for _, sets := range lists {
		for _, fs := range sets {
			if k := fs.Violation.MapKey(); !seen[k] {
				seen[k] = true
				want = append(want, fmt.Sprintf("%v %v", fs.Violation, fs.Fixes))
			}
		}
	}
	if len(want) == 200 {
		t.Fatal("the input has no repeats")
	}
	for name, hash := range map[string]func(model.ViolationKey) uint64{
		"distinct": func(k model.ViolationKey) uint64 { return uint64(k.Cells[0].TupleID)<<32 | uint64(k.Cells[1].TupleID) },
		"constant": func(model.ViolationKey) uint64 { return 42 },
		"two":      func(k model.ViolationKey) uint64 { return uint64(k.Cells[0].TupleID % 2) },
	} {
		if got := rendered(t, core.AssembleHashed(lists, hash)); !slices.Equal(got, want) {
			t.Errorf("%s hash: %d fix sets, want %d:\n got  %q\n want %q", name, len(got), len(want), got, want)
		}
	}
}

// TestOCJoinUniqueByStrictSelfCondition: an OCJoin pipeline skips the
// seen-set exactly when a strict condition compares a column with itself
// and its branch has no Scope;
// cleanse's TestOCJoinDedupBoundary checks both kinds against the per-pair
// reference.
func TestOCJoinUniqueByStrictSelfCondition(t *testing.T) {
	schema := model.MustParseSchema(oracleSchema)
	for spec, unique := range map[string]bool{
		"t1.salary > t2.salary & t1.rate < t2.rate":   true,
		"t1.salary < t2.salary":                       true,
		"t1.salary >= t2.salary & t1.rate < t2.rate":  true,
		"t1.salary < t2.rate & t1.rate > t2.salary":   false,
		"t1.salary <= t2.salary & t1.rate >= t2.rate": false,
	} {
		d, err := rules.ParseDC("oc", spec)
		if err != nil {
			t.Fatal(err)
		}
		r, err := d.Compile(schema)
		if err != nil {
			t.Fatal(err)
		}
		lp, err := core.PlanRule(r, oracleData(10, 1))
		if err != nil {
			t.Fatal(err)
		}
		pp, err := core.NewPlanner().Plan(lp)
		if err != nil {
			t.Fatal(err)
		}
		if p := pp.Pipelines[0]; p.Impl != core.IterOCJoin || p.Unique() != unique {
			t.Errorf("%s: %s pipeline, unique %v; want OCJoin, unique %v", spec, p.Impl, p.Unique(), unique)
		}
		// A Scope may replicate a unit, and a replica pairs like its original.
		r.Scope = func(tp model.Tuple) []model.Tuple { return []model.Tuple{tp, tp} }
		if lp, err = core.PlanRule(r, oracleData(10, 1)); err != nil {
			t.Fatal(err)
		}
		if pp, err = core.NewPlanner().Plan(lp); err != nil {
			t.Fatal(err)
		}
		if pp.Pipelines[0].Unique() {
			t.Errorf("%s behind a Scope: unique, want hashed", spec)
		}
	}
}

// TestOutputKeepsEachViolationsRuleID: an output stamps each violation with
// the rule ID it was emitted under, also when one group's Detect emits
// under more than one.
func TestOutputKeepsEachViolationsRuleID(t *testing.T) {
	var out core.Output
	ids := []string{"a", "a", "b", "a", "c"}
	for i, id := range ids {
		out.Emit(id, model.NewCell(int64(i), 0, model.I(int64(i))))
	}
	vs := out.Violations()
	if len(vs) != len(ids) {
		t.Fatalf("%d violations, want %d", len(vs), len(ids))
	}
	for i, v := range vs {
		if v.RuleID != ids[i] || len(v.Cells) != 1 || v.Cells[0].TupleID != int64(i) {
			t.Errorf("violation %d is %v, want rule %s naming tuple %d", i, v, ids[i], i)
		}
	}
}
