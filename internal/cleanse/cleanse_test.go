package cleanse

import (
	"fmt"
	"testing"

	"bigdansing/internal/core"
	"bigdansing/internal/engine"
	"bigdansing/internal/model"
	"bigdansing/internal/repair"
	"bigdansing/internal/rules"
)

// dirtyTax builds a tax table where some zipcodes map to two cities: per
// zipcode group, most tuples carry the correct city and a minority carry a
// corrupted one — the error model of the evaluation's TaxA generator.
func dirtyTax(groups, perGroup, dirtyPerGroup int) *model.Relation {
	s := model.MustParseSchema("name,zipcode:int,city,state,salary:float,rate:float")
	rel := model.NewRelation("tax", s)
	id := int64(0)
	for g := 0; g < groups; g++ {
		city := fmt.Sprintf("City%d", g)
		for i := 0; i < perGroup; i++ {
			c := city
			if i < dirtyPerGroup {
				c = city + "_typo"
			}
			rel.Append(model.NewTuple(id,
				model.S(fmt.Sprintf("P%d", id)),
				model.I(int64(10000+g)),
				model.S(c),
				model.S("ST"),
				model.F(float64(1000*id)),
				model.F(float64(id%50)),
			))
			id++
		}
	}
	return rel
}

func fdZipCity(t *testing.T, rel *model.Relation) *core.Rule {
	t.Helper()
	fd, err := rules.ParseFD("phi1", "zipcode -> city")
	if err != nil {
		t.Fatal(err)
	}
	rule, err := fd.Compile(rel.Schema)
	if err != nil {
		t.Fatal(err)
	}
	return rule
}

// mustCleaner builds a Cleaner from a configuration the test knows is valid.
func mustCleaner(t *testing.T, ctx *engine.Context, rules []*core.Rule, opts ...Option) *Cleaner {
	t.Helper()
	c, err := NewCleaner(ctx, rules, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCleanRepairsAllFDViolations(t *testing.T) {
	rel := dirtyTax(10, 8, 2)
	cleaner := mustCleaner(t, engine.New(4), []*core.Rule{fdZipCity(t, rel)})
	res, err := cleaner.Clean(rel)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report().InitialViolations == 0 {
		t.Fatal("generator should produce violations")
	}
	if res.Report().RemainingViolations != 0 {
		t.Fatalf("remaining violations = %d, want 0", res.Report().RemainingViolations)
	}
	// Majority repair restores the correct city everywhere.
	for _, tp := range res.Clean.Tuples {
		city := tp.Cell(2).String()
		zip := tp.Cell(1).Int
		want := fmt.Sprintf("City%d", zip-10000)
		if city != want {
			t.Errorf("tuple %d: city = %s, want %s", tp.ID, city, want)
		}
	}
	// The input must not be modified.
	if rel.Tuples[0].Cell(2).String() != "City0_typo" {
		t.Error("input relation was mutated")
	}
}

func TestCleanParallelMatchesCentralized(t *testing.T) {
	rel := dirtyTax(12, 6, 2)
	run := func(parallel bool) *Result {
		var opts []Option
		if parallel {
			opts = append(opts, WithParallelRepair(repair.Options{}))
		}
		cleaner := mustCleaner(t, engine.New(4), []*core.Rule{fdZipCity(t, rel)}, opts...)
		res, err := cleaner.Clean(rel)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(false)
	par := run(true)
	if seq.Report().RemainingViolations != 0 || par.Report().RemainingViolations != 0 {
		t.Fatalf("both should converge: seq %d, par %d", seq.Report().RemainingViolations, par.Report().RemainingViolations)
	}
	if seq.Report().Iterations != par.Report().Iterations {
		t.Errorf("iterations differ: %d vs %d (paper: parallel matches centralized)", seq.Report().Iterations, par.Report().Iterations)
	}
	for i := range seq.Clean.Tuples {
		if seq.Clean.Tuples[i].Cell(2) != par.Clean.Tuples[i].Cell(2) {
			t.Errorf("tuple %d differs between parallel and centralized repair", i)
		}
	}
}

func TestCleanTerminatesOnContradictoryRules(t *testing.T) {
	// Two FDs that cannot both be satisfied by equivalence-class repair on
	// this data oscillate; the freeze device must still terminate.
	s := model.MustParseSchema("a,b,c")
	rel := model.NewRelation("r", s)
	// a -> b wants b equal within {t0,t1}; c -> b wants b equal within
	// {t1,t2}; but we seed three different b values and also make a
	// pathological rule pair that keeps reintroducing violations.
	rel.Append(
		model.NewTuple(0, model.S("a1"), model.S("b1"), model.S("c1")),
		model.NewTuple(1, model.S("a1"), model.S("b2"), model.S("c2")),
		model.NewTuple(2, model.S("a2"), model.S("b3"), model.S("c2")),
	)
	fd1, _ := rules.ParseFD("fd1", "a -> b")
	r1, err := fd1.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	fd2, _ := rules.ParseFD("fd2", "c -> b")
	r2, err := fd2.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	cleaner := mustCleaner(t, engine.New(2), []*core.Rule{r1, r2}, WithMaxIterations(6))
	res, err := cleaner.Clean(rel)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report().Iterations > 6 {
		t.Errorf("iterations = %d exceeds bound", res.Report().Iterations)
	}
	// b values should converge to a single value satisfying both FDs.
	if res.Report().RemainingViolations != 0 {
		t.Logf("remaining = %d (allowed when only frozen-cell violations remain)", res.Report().RemainingViolations)
	}
}

func TestCleanDetectionOnlyRule(t *testing.T) {
	// A rule without GenFix: violations are reported, nothing is repaired.
	rel := dirtyTax(2, 4, 1)
	r := fdZipCity(t, rel)
	r.GenFix = nil
	cleaner := mustCleaner(t, engine.New(2), []*core.Rule{r})
	res, err := cleaner.Clean(rel)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report().Iterations != 1 {
		t.Errorf("detection-only should stop after one iteration, got %d", res.Report().Iterations)
	}
	if res.Report().RemainingViolations == 0 {
		t.Error("violations should remain reported")
	}
	if res.Report().UpdatesApplied != 0 {
		t.Error("nothing should be repaired")
	}
}

func TestCleanWithHypergraphAlgorithmOnDC(t *testing.T) {
	// TaxB-style numeric errors: salary/rate monotonicity violations
	// repaired by the hypergraph algorithm.
	s := model.MustParseSchema("name,zipcode:int,city,state,salary:float,rate:float")
	rel := model.NewRelation("taxb", s)
	rel.Append(
		model.NewTuple(0, model.S("a"), model.I(1), model.S("X"), model.S("S"), model.F(10000), model.F(5)),
		model.NewTuple(1, model.S("b"), model.I(1), model.S("X"), model.S("S"), model.F(20000), model.F(30)), // rate too high? no: fine
		model.NewTuple(2, model.S("c"), model.I(1), model.S("X"), model.S("S"), model.F(30000), model.F(10)), // violates vs t1
	)
	dc, err := rules.ParseDC("phi2", "t1.rate > t2.rate & t1.salary < t2.salary")
	if err != nil {
		t.Fatal(err)
	}
	rule, err := dc.Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	cleaner := mustCleaner(t, engine.New(2), []*core.Rule{rule}, WithAlgorithm(&repair.Hypergraph{}))
	res, err := cleaner.Clean(rel)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report().InitialViolations == 0 {
		t.Fatal("seed data should violate phi2")
	}
	if res.Report().RemainingViolations != 0 {
		t.Errorf("remaining = %d after hypergraph repair", res.Report().RemainingViolations)
	}
}

func TestCleanNoRules(t *testing.T) {
	if _, err := NewCleaner(engine.New(2), nil); err == nil {
		t.Error("no rules should error")
	}
	var zero Cleaner
	if _, err := zero.Clean(dirtyTax(1, 2, 0)); err == nil {
		t.Error("a zero Cleaner should error, not run")
	}
}

func TestCleanSplitTimesAreRecorded(t *testing.T) {
	rel := dirtyTax(5, 6, 2)
	cleaner := mustCleaner(t, engine.New(4), []*core.Rule{fdZipCity(t, rel)})
	res, err := cleaner.Clean(rel)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report().DetectTime <= 0 {
		t.Error("detect time should be recorded")
	}
	if res.Report().RepairTime <= 0 {
		t.Error("repair time should be recorded")
	}
}

// TestNewCleanerOptions checks the functional-options constructor wires
// every option onto the Cleaner it returns.
func TestNewCleanerOptions(t *testing.T) {
	ctx := engine.New(2)
	rel := dirtyTax(3, 5, 1)
	r := fdZipCity(t, rel)
	hg := &repair.Hypergraph{}
	c, err := NewCleaner(ctx, []*core.Rule{r},
		WithAlgorithm(hg),
		WithParallelRepair(repair.Options{Parallelism: 3}),
		WithMaxIterations(7),
		WithFreezeAfter(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	if c.ctx != ctx || len(c.rules) != 1 || c.rules[0] != r {
		t.Fatal("ctx/rules not wired")
	}
	if c.algo != hg {
		t.Error("WithAlgorithm not applied")
	}
	if !c.parallel || c.repairOpts.Parallelism != 3 {
		t.Error("WithParallelRepair not applied")
	}
	if c.maxIterations != 7 {
		t.Error("WithMaxIterations not applied")
	}
	if c.freezeAfter != 2 {
		t.Error("WithFreezeAfter not applied")
	}

	// A cleaner built with options must actually clean, with them.
	res, err := c.Clean(rel)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report()
	if rep.RemainingViolations != 0 {
		t.Errorf("remaining violations: %d", rep.RemainingViolations)
	}
	if len(rep.RepairRounds) == 0 || rep.Iterations > 7 {
		t.Errorf("parallel repair rounds %d, iterations %d (max 7)", len(rep.RepairRounds), rep.Iterations)
	}
}
