package core

import (
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"bigdansing/internal/engine"
	"bigdansing/internal/model"
)

// planTaxData builds a tax-like relation of n rows whose zipcode (col 1)
// cycles through `distinct` values; every block of shared zipcode disagrees
// on city for one row in ten, so FD detection finds work at every size.
func planTaxData(n, distinct int) *model.Relation {
	s := model.MustParseSchema("name,zipcode:int,city")
	rel := model.NewRelation("tax", s)
	for i := 0; i < n; i++ {
		city := "C"
		if i%10 == 0 {
			city = "X"
		}
		rel.Append(model.NewTuple(int64(i+1),
			model.S("n"), model.I(int64(i%distinct)), model.S(city)))
	}
	return rel
}

// planFDRule is a minimal blocked symmetric FD-shaped rule over planTaxData.
func planFDRule() *Rule {
	return &Rule{
		ID:        "planFD",
		Block:     func(t model.Tuple) model.Value { return t.Cell(1) },
		BlockAttr: "zipcode",
		Symmetric: true,
		Detect: func(it Item) []model.Violation {
			l, r := it.Left(), it.Right()
			if !l.Cell(1).Equal(r.Cell(1)) || l.Cell(2).Equal(r.Cell(2)) {
				return nil
			}
			return []model.Violation{model.NewViolation("planFD",
				model.NewCell(l.ID, 2, l.Cell(2)),
				model.NewCell(r.ID, 2, r.Cell(2)))}
		},
	}
}

func mustPlanRule(t *testing.T, pl *Planner, r *Rule, rel *model.Relation) *PhysicalPlan {
	t.Helper()
	lp, err := PlanRule(r, rel)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := pl.Plan(lp)
	if err != nil {
		t.Fatal(err)
	}
	return pp
}

func costPlanner(opts ...PlannerOption) *Planner {
	base := []PlannerOption{WithCostModel(NewCostModel()), WithParallelism(4)}
	return NewPlanner(append(base, opts...)...)
}

func violationKeys(res *DetectResult) []string {
	keys := make([]string, 0, len(res.Violations))
	for _, v := range res.Violations {
		keys = append(keys, v.Key())
	}
	sort.Strings(keys)
	return keys
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
			Detect: func(Item) []model.Violation { return nil },
		}, IterSingles},
	}
	for _, c := range cases {
		pp := mustPlanRule(t, NewPlanner(), c.rule, rel)
		p := pp.Pipelines[0]
		if p.Impl != c.want {
			t.Errorf("%s: impl = %v, want %v", c.name, p.Impl, c.want)
		}
		if p.Broadcast {
			t.Errorf("%s: static planner chose broadcast", c.name)
		}
		if len(p.Alternatives) != 0 {
			t.Errorf("%s: static plan should not carry alternatives, got %d", c.name, len(p.Alternatives))
		}
	}
}

// TestOpsMarkersForOCJoinAndCoBlock covers the Ops-rendering fix: the
// OCJoin and CoBlock paths now name their partitioning operators.
func TestOpsMarkersForOCJoinAndCoBlock(t *testing.T) {
	rel := exampleTax()

	pp := mustPlanRule(t, NewPlanner(), dcRule(), rel)
	ops := strings.Join(pp.Pipelines[0].Ops, " -> ")
	if !strings.Contains(ops, "RangePartition") {
		t.Errorf("OCJoin ops missing RangePartition: %s", ops)
	}

	co := &Rule{
		ID:         "co",
		Block:      func(t model.Tuple) model.Value { return t.Cell(1) },
		BlockRight: func(t model.Tuple) model.Value { return t.Cell(2) },
		Detect:     func(Item) []model.Violation { return nil },
	}
	pp = mustPlanRule(t, NewPlanner(), co, rel)
	ops = strings.Join(pp.Pipelines[0].Ops, " -> ")
	if pp.Pipelines[0].Impl != IterCoBlockPairs {
		t.Fatalf("impl = %v, want CoBlock", pp.Pipelines[0].Impl)
	}
	if !strings.Contains(ops, "Co-Block") {
		t.Errorf("CoBlock ops missing Co-Block: %s", ops)
	}
}

// TestCostPlannerBroadcastsTinyRelation: on a tiny blocked relation the
// cost model prefers the broadcast variant (no shuffle-stage setup), and
// the result is identical to the static plan's.
func TestCostPlannerBroadcastsTinyRelation(t *testing.T) {
	rel := planTaxData(300, 60)
	r := planFDRule()

	pp := mustPlanRule(t, costPlanner(), r, rel)
	p := pp.Pipelines[0]
	if !p.Broadcast {
		t.Fatalf("tiny relation: want broadcast, chose %s (cost %s)\n%s",
			p.Impl, p.EstCost, pp.Explain())
	}
	if len(p.Alternatives) == 0 {
		t.Fatal("cost plan should carry alternatives")
	}
	chosen := 0
	for _, a := range p.Alternatives {
		if a.Chosen {
			chosen++
		}
	}
	if chosen != 1 {
		t.Errorf("chosen alternatives = %d, want 1", chosen)
	}
	exp := pp.Explain()
	if !strings.Contains(exp, "chosen") || !strings.Contains(exp, "rejected") || !strings.Contains(exp, "total=") {
		t.Errorf("Explain should audit chosen-vs-rejected with costs:\n%s", exp)
	}

	ctx := engine.New(4)
	got, err := DetectRulesWith(ctx, costPlanner(), []*Rule{r}, rel)
	if err != nil {
		t.Fatal(err)
	}
	want, err := DetectRule(ctx, r, rel)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(violationKeys(got), violationKeys(want)) {
		t.Errorf("broadcast plan found %d violations, static %d", len(got.Violations), len(want.Violations))
	}
}

// TestCostPlannerKeepsShuffleForLargeRelation: past the crossover the
// blocked shuffle wins again (collect cost scales with size and is not
// divided by parallelism).
func TestCostPlannerKeepsShuffleForLargeRelation(t *testing.T) {
	rel := planTaxData(20000, 500)
	pp := mustPlanRule(t, costPlanner(), planFDRule(), rel)
	p := pp.Pipelines[0]
	if p.Broadcast {
		t.Fatalf("large relation: broadcast chosen over shuffle\n%s", pp.Explain())
	}
	if p.Impl != IterUniquePairs {
		t.Errorf("impl = %v, want UCrossProduct", p.Impl)
	}
}

// TestCostPlannerSpillPenaltySteersOffBroadcast: with a memory budget the
// broadcast grouping (one task holding the whole working set) is penalized
// harder than the parallel shuffle, flipping the tiny-relation choice back
// to blocked.
func TestCostPlannerSpillPenaltySteersOffBroadcast(t *testing.T) {
	// Near the broadcast/shuffle crossover: unconstrained, broadcast still
	// wins on stage setup; a budget makes its one-task working set lose.
	rel := planTaxData(1200, 600)
	r := planFDRule()

	free := mustPlanRule(t, costPlanner(), r, rel).Pipelines[0]
	if !free.Broadcast {
		t.Fatalf("without budget this relation should broadcast\n%v", free.EstCost)
	}
	budgeted := mustPlanRule(t, costPlanner(WithMemoryBudget(4<<10)), r, rel).Pipelines[0]
	if budgeted.Broadcast {
		t.Fatalf("4KiB budget: broadcast still chosen (cost %s)", budgeted.EstCost)
	}
	if budgeted.EstCost.Spill <= 0 {
		t.Errorf("budgeted choice should carry a spill penalty, got %s", budgeted.EstCost)
	}
}

// TestCostPlannerPicksAlternateKeyUnderSkew: when the primary block key is
// heavily skewed and the rule offers a uniform alternate, the planner
// re-keys the branch on the alternate.
func TestCostPlannerPicksAlternateKeyUnderSkew(t *testing.T) {
	rel := planTaxData(10000, 4)
	r := planFDRule()
	r.AltBlocks = []BlockFunc{func(t model.Tuple) model.Value { return t.Cell(0) }}
	r.AltBlockAttrs = []string{"name"}
	r.DetectBlock = func([]model.Tuple, bool) ([]model.FixSet, int64) { return nil, 0 }

	stats := map[string]TableStats{
		r.ID: {
			Rows:       10000,
			TupleBytes: 48,
			BlockKeys: map[string]BlockKeyStats{
				"zipcode": {Distinct: 4, TopFraction: 0.9, KeyBytes: 6},
				"name":    {Distinct: 2000, TopFraction: 0.001, KeyBytes: 6},
			},
		},
	}
	pp := mustPlanRule(t, costPlanner(WithTableStats(stats)), r, rel)
	p := pp.Pipelines[0]
	if p.Broadcast {
		t.Fatalf("skewed 10k-row relation should not broadcast\n%s", pp.Explain())
	}
	var chosen *PlanAlternative
	for i := range p.Alternatives {
		if p.Alternatives[i].Chosen {
			chosen = &p.Alternatives[i]
		}
	}
	if chosen == nil || chosen.AltBlock != 0 || chosen.BlockAttr != "name" {
		t.Fatalf("want alternate key 'name' chosen, got %+v\n%s", chosen, pp.Explain())
	}
	// The physical branch must actually be re-keyed, and the block kernel,
	// which assumes the primary key's groups, dropped.
	got := p.Branches[0].Block(rel.Tuples[0])
	if !got.Equal(rel.Tuples[0].Cell(0)) {
		t.Errorf("physical branch still keyed on the primary block")
	}
	if p.DetectBlock != nil {
		t.Errorf("alternate-key plan must drop the block kernel")
	}
}

// TestSampleBranchStats sanity-checks the one-pass sampler: row counts,
// scope selectivity, and distinct/skew per candidate key.
func TestSampleBranchStats(t *testing.T) {
	rel := planTaxData(1000, 10)
	b := Branch{
		Label: "x", Dataset: "tax",
		Block:     func(t model.Tuple) model.Value { return t.Cell(1) },
		BlockAttr: "zipcode",
	}
	st := sampleBranchStats(rel, b, 4)
	if st.Rows != 1000 {
		t.Errorf("rows = %d, want 1000", st.Rows)
	}
	if st.TupleBytes <= 0 {
		t.Errorf("tuple bytes = %v, want > 0", st.TupleBytes)
	}
	ks, ok := st.BlockKeys["zipcode"]
	if !ok {
		t.Fatalf("no stats for zipcode: %+v", st.BlockKeys)
	}
	if ks.Distinct != 10 {
		t.Errorf("distinct = %d, want 10", ks.Distinct)
	}
	if ks.TopFraction < 0.05 || ks.TopFraction > 0.2 {
		t.Errorf("top fraction = %v, want ~0.1", ks.TopFraction)
	}

	// A scope that drops everything drives Rows to zero.
	b.Scopes = []ScopeFunc{func(model.Tuple) []model.Tuple { return nil }}
	st = sampleBranchStats(rel, b, 4)
	if st.Rows != 0 {
		t.Errorf("scoped-out rows = %d, want 0", st.Rows)
	}
}

// TestObserverFeedbackChangesEstimate: pipeline measurements loaded from a
// -stats-out file measurably change the planner's pair estimate.
func TestObserverFeedbackChangesEstimate(t *testing.T) {
	rel := planTaxData(2000, 100)
	r := planFDRule()

	before := mustPlanRule(t, costPlanner(), r, rel).Pipelines[0].EstCost

	fb := &Feedback{Pipelines: map[string]PipelineFeedback{
		r.ID: {Pairs: 5_000_000, Violations: 12},
	}}
	path := filepath.Join(t.TempDir(), "stats.json")
	if err := fb.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadFeedbackFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.Pipelines, fb.Pipelines) {
		t.Fatalf("round trip mismatch: %+v != %+v", loaded.Pipelines, fb.Pipelines)
	}

	after := mustPlanRule(t, costPlanner(WithObserverFeedback(loaded)), r, rel).Pipelines[0].EstCost
	if after.Pairs <= before.Pairs {
		t.Errorf("measured 5M pairs should raise the estimate: before %v, after %v", before.Pairs, after.Pairs)
	}
}

// TestFeedbackRecorderHarvestsPipelineSpans: a FeedbackRecorder installed
// as the run's Observer captures measured pair and violation counts.
func TestFeedbackRecorderHarvestsPipelineSpans(t *testing.T) {
	rec := NewFeedbackRecorder()
	ctx := mustContext(t, engine.Config{Parallelism: 4, Observer: rec})
	rel := planTaxData(200, 20)
	r := planFDRule()
	res, err := DetectRule(ctx, r, rel)
	if err != nil {
		t.Fatal(err)
	}
	fb := rec.PlanFeedback()
	pf, ok := fb.Pipelines[r.ID]
	if !ok {
		t.Fatalf("no feedback recorded for %s: %+v", r.ID, fb.Pipelines)
	}
	if pf.Pairs <= 0 {
		t.Errorf("measured pairs = %d, want > 0", pf.Pairs)
	}
	if pf.Violations != int64(len(res.Violations)) {
		t.Errorf("measured violations = %d, want %d", pf.Violations, len(res.Violations))
	}
}

// TestBroadcastCoBlockEquivalence: the broadcast CoBlock variant — the same
// co-grouping into one partition — finds the same violations as the
// co-grouped shuffle.
func TestBroadcastCoBlockEquivalence(t *testing.T) {
	rel := exampleTax()
	co := &Rule{
		ID:         "co",
		Block:      func(t model.Tuple) model.Value { return t.Cell(3) }, // state
		BlockRight: func(t model.Tuple) model.Value { return t.Cell(3) },
		Detect: func(it Item) []model.Violation {
			l, r := it.Left(), it.Right()
			if l.ID == r.ID || l.Cell(2).Equal(r.Cell(2)) {
				return nil
			}
			return []model.Violation{model.NewViolation("co",
				model.NewCell(l.ID, 2, l.Cell(2)),
				model.NewCell(r.ID, 2, r.Cell(2)))}
		},
	}
	lp, err := PlanRule(co, rel)
	if err != nil {
		t.Fatal(err)
	}
	static, err := NewPlanner().Plan(lp)
	if err != nil {
		t.Fatal(err)
	}
	lp2, err := PlanRule(co, rel)
	if err != nil {
		t.Fatal(err)
	}
	bcast, err := NewPlanner().Plan(lp2)
	if err != nil {
		t.Fatal(err)
	}
	bcast.Pipelines[0].Broadcast = true

	ctx := engine.New(4)
	want, err := RunPlanSpark(ctx, static)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Violations) == 0 {
		t.Fatal("CoBlock test data produced no violations")
	}
	got, err := RunPlanSpark(ctx, bcast)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(violationKeys(got), violationKeys(want)) {
		t.Errorf("broadcast CoBlock diverged: %d vs %d violations", len(got.Violations), len(want.Violations))
	}
}

// TestPlannerHistory: Plan calls append bounded Explain snapshots for the
// serve audit endpoint.
func TestPlannerHistory(t *testing.T) {
	pl := NewPlanner()
	rel := exampleTax()
	for i := 0; i < 12; i++ {
		mustPlanRule(t, pl, fdRule(), rel)
	}
	h := pl.History()
	if len(h) != 8 {
		t.Fatalf("history length = %d, want bounded at 8", len(h))
	}
	if !strings.Contains(h[0], "phiF") {
		t.Errorf("history entry should render the plan: %q", h[0])
	}
}

// TestOCJoinAlternativePartitionCounts: the cost planner enumerates
// repartitioned OCJoin alternatives and EXPLAIN shows them.
func TestOCJoinAlternativePartitionCounts(t *testing.T) {
	rel := exampleTax()
	pp := mustPlanRule(t, costPlanner(), dcRule(), rel)
	p := pp.Pipelines[0]
	if p.Impl != IterOCJoin {
		t.Fatalf("impl = %v", p.Impl)
	}
	if len(p.Alternatives) < 3 {
		t.Fatalf("OCJoin alternatives = %d, want >= 3\n%s", len(p.Alternatives), pp.Explain())
	}
	seen := map[int]bool{}
	for _, a := range p.Alternatives {
		seen[a.NumParts] = true
	}
	if len(seen) < 3 {
		t.Errorf("want distinct partition counts, got %v", seen)
	}
}
