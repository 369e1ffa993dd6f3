package rules

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bigdansing/internal/core"
	"bigdansing/internal/engine"
	"bigdansing/internal/model"
)

// blockLocalRules are compiled rules whose block-local passes take each of
// the pass's detectors: an FD through its kernel, an asymmetric DC through
// its kernel and (kernel stripped) through the ordered pair loop, and a
// scoped unary DC through Detect per tuple. All four are incrementalizable.
func blockLocalRules(t *testing.T, schema *model.Schema) []*core.Rule {
	t.Helper()
	fd, err := ParseFD("fd", "zipcode -> city")
	if err != nil {
		t.Fatal(err)
	}
	fdr, err := fd.Compile(schema)
	if err != nil {
		t.Fatal(err)
	}
	compileDC := func(id, spec string) *core.Rule {
		d, err := ParseDC(id, spec)
		if err != nil {
			t.Fatal(err)
		}
		r, err := d.Compile(schema)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	const asymSpec = "t1.zipcode = t2.zipcode & t1.salary > t2.salary & t1.rate < 1"
	asym := compileDC("asym", asymSpec)
	loop := compileDC("asymloop", asymSpec)
	loop.DetectBlock = nil
	unary := withCityScope(compileDC("unary", "t1.salary > 2500 & t1.rate < 3"))
	rs := []*core.Rule{fdr, asym, loop, unary}
	for _, r := range rs {
		// The detector's condition for block-incremental maintenance.
		if !r.Unary && (r.Block == nil || r.Scope != nil || r.Iterate != nil || len(r.OrderConds) > 0) {
			t.Fatalf("rule %s is not incrementalizable", r.ID)
		}
	}
	if fdr.DetectBlock == nil || asym.DetectBlock == nil || asym.Symmetric || !unary.Unary {
		t.Fatal("the rules do not cover the kernel, ordered and unary passes")
	}
	return rs
}

// withCityScope narrows a rule to rows whose city is not "CH".
func withCityScope(r *core.Rule) *core.Rule {
	r.Scope = func(t model.Tuple) []model.Tuple {
		if t.Cell(2).Equal(model.S("CH")) {
			return nil
		}
		return []model.Tuple{t}
	}
	return r
}

// canonical renders a result per rule as a sorted list: each fix set with
// its fixes, or only the violation's canonical key for an asymmetric rule,
// whose full and block-local passes may keep different orientations of one
// violation.
func canonical(res *core.DetectResult, rs []*core.Rule) map[string][]string {
	symmetric := map[string]bool{}
	for _, r := range rs {
		symmetric[r.ID] = r.Symmetric || r.Unary
	}
	out := map[string][]string{}
	for _, fs := range res.FixSets {
		line := fs.Violation.Key()
		if symmetric[fs.Violation.RuleID] {
			line = fmt.Sprint(fs)
		}
		out[fs.Violation.RuleID] = append(out[fs.Violation.RuleID], line)
	}
	for _, lines := range out {
		slices.Sort(lines)
	}
	return out
}

// TestIncrementalKernelMatchesScratch is core's incremental ≡ from-scratch
// property (TestIncrementalMatchesScratch) for compiled rules, which core's
// tests cannot import: a seeded mix of appends, updates that move a tuple to
// another block, updates that keep its key, and updates of the DC columns.
// After every step Detect must equal a full pass over the relation.
func TestIncrementalKernelMatchesScratch(t *testing.T) {
	ctx := engine.New(2)
	whole := vecRandomTax(400, 21)
	rs := blockLocalRules(t, whole.Schema)
	rel := model.NewRelation(whole.Name, whole.Schema)
	rel.Append(whole.Tuples[:100]...)
	det, err := core.NewIncrementalDetector(ctx, rs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Detect(rel, rel.ByID(), nil); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	next := 100
	for step := 0; step < 60; step++ {
		var changed []int64
		touch := func(i int) { changed = append(changed, rel.Tuples[i].ID) }
		switch r.Intn(4) {
		case 0: // append
			for n := 1 + r.Intn(20); n > 0 && next < whole.Len(); n-- {
				rel.Append(whole.Tuples[next])
				touch(rel.Len() - 1)
				next++
			}
		case 1: // move to another block
			for n := 1 + r.Intn(5); n > 0; n-- {
				i := r.Intn(rel.Len())
				rel.Tuples[i].Cells[1] = model.I(int64(10000 + r.Intn(30)))
				touch(i)
			}
		case 2: // rewrite the city, keeping the block
			for n := 1 + r.Intn(5); n > 0; n-- {
				i := r.Intn(rel.Len())
				rel.Tuples[i].Cells[2] = model.S([]string{"NY", "LA", "CH", "SF"}[r.Intn(4)])
				touch(i)
			}
		default: // rewrite salary and rate
			for n := 1 + r.Intn(5); n > 0; n-- {
				i := r.Intn(rel.Len())
				rel.Tuples[i].Cells[4] = model.F(float64(r.Intn(5000)))
				rel.Tuples[i].Cells[5] = model.F(float64(r.Intn(30)))
				touch(i)
			}
		}
		idx := rel.ByID()
		if r.Intn(3) == 0 { // fold the change in at ingest time
			if err := det.Observe(rel, idx, changed); err != nil {
				t.Fatal(err)
			}
			changed = nil
		}
		got, err := det.Detect(rel, idx, changed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.DetectRules(ctx, rs, rel)
		if err != nil {
			t.Fatal(err)
		}
		g, w := canonical(got, rs), canonical(want, rs)
		for _, rule := range rs {
			if !slices.Equal(g[rule.ID], w[rule.ID]) {
				t.Fatalf("step %d, rule %s: %d fix sets, want the full pass's %d:\n got  %q\n want %q",
					step, rule.ID, len(g[rule.ID]), len(w[rule.ID]), g[rule.ID], w[rule.ID])
			}
		}
	}
}

// TestObserveShufflesNothing: once primed, folding appends and updates into
// incrementalizable rules reads the touched blocks in place — neither
// Observe nor the Detect after it moves a record through a shuffle.
func TestObserveShufflesNothing(t *testing.T) {
	ctx := engine.New(2)
	whole := vecRandomTax(300, 3)
	rs := blockLocalRules(t, whole.Schema)
	rel := model.NewRelation(whole.Name, whole.Schema)
	rel.Append(whole.Tuples[:200]...)
	det, err := core.NewIncrementalDetector(ctx, rs)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.Observe(rel, rel.ByID(), nil); err != nil { // the priming pass
		t.Fatal(err)
	}
	before := ctx.Stats().Snapshot()
	var changed []int64
	for _, tp := range whole.Tuples[200:] {
		rel.Append(tp)
		changed = append(changed, tp.ID)
	}
	for i := 0; i < 200; i += 7 {
		rel.Tuples[i].Cells[1] = model.I(int64(i % 11))
		changed = append(changed, rel.Tuples[i].ID)
	}
	idx := rel.ByID()
	if err := det.Observe(rel, idx, changed); err != nil {
		t.Fatal(err)
	}
	res, err := det.Detect(rel, idx, nil)
	if err != nil {
		t.Fatal(err)
	}
	after := ctx.Stats().Snapshot()
	if after.RecordsShuffled != before.RecordsShuffled {
		t.Errorf("block-local passes shuffled %d records", after.RecordsShuffled-before.RecordsShuffled)
	}
	if after.RecordsRead == before.RecordsRead || len(res.Violations) == 0 {
		t.Errorf("the passes read %d records and found %d violations; want some of both",
			after.RecordsRead-before.RecordsRead, len(res.Violations))
	}
}
