package core

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"bigdansing/internal/engine"
	"bigdansing/internal/model"
)

// mutableTax builds a tax relation with n rows over k zip blocks where the
// city is derived from the zip, plus a few corruptions.
func mutableTax(n, k int, seed int64) *model.Relation {
	r := rand.New(rand.NewSource(seed))
	s := model.MustParseSchema("name,zipcode:int,city,state,salary:float,rate:float")
	rel := model.NewRelation("tax", s)
	for i := 0; i < n; i++ {
		zip := int64(10000 + r.Intn(k))
		city := fmt.Sprintf("C%d", zip)
		if r.Intn(10) == 0 {
			city = "BAD" + city
		}
		rel.Append(model.NewTuple(int64(i), model.S("p"), model.I(zip), model.S(city),
			model.S("ST"), model.F(1), model.F(1)))
	}
	return rel
}

func violationKeySet(res *DetectResult) map[string]bool {
	out := map[string]bool{}
	for _, v := range res.Violations {
		out[v.Key()] = true
	}
	return out
}

func assertSameViolations(t *testing.T, got, want *DetectResult, context string) {
	t.Helper()
	gk, wk := violationKeySet(got), violationKeySet(want)
	if len(gk) != len(wk) {
		t.Fatalf("%s: incremental %d vs full %d violations", context, len(gk), len(wk))
	}
	for k := range wk {
		if !gk[k] {
			t.Errorf("%s: missing violation %s", context, k)
		}
	}
}

func TestIncrementalMatchesFullAfterUpdates(t *testing.T) {
	ctx := engine.New(4)
	rel := mutableTax(300, 25, 3)
	rule := fdRule()

	det, err := NewIncrementalDetector(ctx, []*Rule{rule})
	if err != nil {
		t.Fatal(err)
	}
	first, err := det.Detect(rel, rel.ByID(), nil)
	if err != nil {
		t.Fatal(err)
	}
	fullFirst, err := DetectRule(ctx, rule, rel)
	if err != nil {
		t.Fatal(err)
	}
	assertSameViolations(t, first, fullFirst, "first pass")

	// Apply a series of random updates (city fixes and zip moves) and
	// verify parity after each round.
	r := rand.New(rand.NewSource(99))
	idx := rel.ByID()
	for round := 0; round < 5; round++ {
		var changed []int64
		for j := 0; j < 10; j++ {
			id := int64(r.Intn(300))
			i := idx[id]
			switch r.Intn(3) {
			case 0: // repair the city to the block's canonical value
				zip := rel.Tuples[i].Cell(1).Int
				rel.Tuples[i].Cells[2] = model.S(fmt.Sprintf("C%d", zip))
			case 1: // corrupt the city
				rel.Tuples[i].Cells[2] = model.S(fmt.Sprintf("BAD%d", r.Intn(50)))
			default: // move the tuple to another block (zip update)
				rel.Tuples[i].Cells[1] = model.I(int64(10000 + r.Intn(25)))
			}
			changed = append(changed, id)
		}
		inc, err := det.Detect(rel, rel.ByID(), changed)
		if err != nil {
			t.Fatal(err)
		}
		full, err := DetectRule(ctx, rule, rel)
		if err != nil {
			t.Fatal(err)
		}
		assertSameViolations(t, inc, full, fmt.Sprintf("round %d", round))
	}
}

func TestIncrementalUnaryRule(t *testing.T) {
	ctx := engine.New(2)
	rel := mutableTax(50, 5, 7)
	rule := &Rule{
		ID:    "badCity",
		Unary: true,
		Detect: func(it Item, out *Output) {
			tp := it.One()
			if len(tp.Cell(2).String()) > 0 && tp.Cell(2).String()[0] == 'B' {
				out.Emit("badCity",
					model.NewCell(tp.ID, 2, tp.Cell(2)))
				return
			}
		},
	}
	det, err := NewIncrementalDetector(ctx, []*Rule{rule})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Detect(rel, rel.ByID(), nil); err != nil {
		t.Fatal(err)
	}
	// Fix one bad city and corrupt a good one.
	var fixed, broken int64 = -1, -1
	for i := range rel.Tuples {
		city := rel.Tuples[i].Cell(2).String()
		if fixed < 0 && city[0] == 'B' {
			rel.Tuples[i].Cells[2] = model.S("CLEAN")
			fixed = rel.Tuples[i].ID
		} else if broken < 0 && city[0] != 'B' {
			rel.Tuples[i].Cells[2] = model.S("BROKEN")
			broken = rel.Tuples[i].ID
		}
	}
	inc, err := det.Detect(rel, rel.ByID(), []int64{fixed, broken})
	if err != nil {
		t.Fatal(err)
	}
	full, err := DetectRule(ctx, rule, rel)
	if err != nil {
		t.Fatal(err)
	}
	assertSameViolations(t, inc, full, "unary")
}

func TestIncrementalFallsBackForComplexRules(t *testing.T) {
	// An OCJoin rule is not incrementalizable; the detector must still
	// produce correct results by re-running it fully.
	ctx := engine.New(2)
	rel := exampleTax()
	det, err := NewIncrementalDetector(ctx, []*Rule{dcRule()})
	if err != nil {
		t.Fatal(err)
	}
	first, err := det.Detect(rel, rel.ByID(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Violations) != 3 {
		t.Fatalf("first pass = %d violations", len(first.Violations))
	}
	// Repair one rate and pass the change.
	idx := rel.ByID()
	rel.Tuples[idx[2]].Cells[5] = model.F(11) // t2 rate 10 -> 11
	inc, err := det.Detect(rel, rel.ByID(), []int64{2})
	if err != nil {
		t.Fatal(err)
	}
	full, err := DetectRule(ctx, dcRule(), rel)
	if err != nil {
		t.Fatal(err)
	}
	assertSameViolations(t, inc, full, "ocjoin fallback")
}

// TestIncrementalAppendMatchesFull: feeding the relation in batches —
// Detect over the IDs appended since the last pass — must match a full
// re-detection after every batch. This is the property streaming sessions
// (cleanse.Session) are built on.
func TestIncrementalAppendMatchesFull(t *testing.T) {
	ctx := engine.New(4)
	whole := mutableTax(240, 20, 11)
	rel := model.NewRelation(whole.Name, whole.Schema)
	det, err := NewIncrementalDetector(ctx, []*Rule{fdRule()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Detect(rel, rel.ByID(), nil); err != nil { // prime on the empty relation
		t.Fatal(err)
	}
	const batch = 60
	for off := 0; off < whole.Len(); off += batch {
		end := off + batch
		if end > whole.Len() {
			end = whole.Len()
		}
		var appended []int64
		for _, tp := range whole.Tuples[off:end] {
			rel.Append(tp)
			appended = append(appended, tp.ID)
		}
		inc, err := det.Detect(rel, rel.ByID(), appended)
		if err != nil {
			t.Fatal(err)
		}
		full, err := DetectRule(ctx, fdRule(), rel)
		if err != nil {
			t.Fatal(err)
		}
		assertSameViolations(t, inc, full, fmt.Sprintf("after append %d..%d", off, end))
	}
}

// TestIncrementalBlockKeyChurn: a repair that rewrites the blocking key
// itself must re-detect both the block the tuple left and the block it
// joined — the old block may lose a violation, the new one may gain one.
func TestIncrementalBlockKeyChurn(t *testing.T) {
	ctx := engine.New(2)
	s := model.MustParseSchema("name,zipcode:int,city,state,salary:float,rate:float")
	rel := model.NewRelation("tax", s)
	// Block 10000: two tuples agreeing on city A. Block 10001: two tuples
	// agreeing on city B. Moving t0 from 10000 to 10001 creates a violation
	// in 10001 and leaves 10000 clean.
	mk := func(id, zip int64, city string) model.Tuple {
		return model.NewTuple(id, model.S("p"), model.I(zip), model.S(city),
			model.S("ST"), model.F(1), model.F(1))
	}
	rel.Append(mk(0, 10000, "A"), mk(1, 10000, "A"), mk(2, 10001, "B"), mk(3, 10001, "B"))
	det, err := NewIncrementalDetector(ctx, []*Rule{fdRule()})
	if err != nil {
		t.Fatal(err)
	}
	first, err := det.Detect(rel, rel.ByID(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Violations) != 0 {
		t.Fatalf("clean start expected, got %d violations", len(first.Violations))
	}
	rel.Tuples[0].Cells[1] = model.I(10001) // t0 changes block
	inc, err := det.Detect(rel, rel.ByID(), []int64{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(inc.Violations) == 0 {
		t.Fatal("moving t0 into block 10001 must violate zipcode -> city")
	}
	full, err := DetectRule(ctx, fdRule(), rel)
	if err != nil {
		t.Fatal(err)
	}
	assertSameViolations(t, inc, full, "block churn")
	// And back: the violation must disappear from both caches.
	rel.Tuples[0].Cells[1] = model.I(10000)
	inc, err = det.Detect(rel, rel.ByID(), []int64{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(inc.Violations) != 0 {
		t.Fatalf("moving t0 back must clear the violation, got %d", len(inc.Violations))
	}
}

// TestIncrementalBoundedFallback: non-incrementalizable rules re-run only
// when a change marked them stale — Detect with an empty changed set must
// not launch any dataflow stages, and Observe must never run them at all.
func TestIncrementalBoundedFallback(t *testing.T) {
	ctx := engine.New(2)
	rel := mutableTax(120, 10, 5)
	rules := []*Rule{fdRule(), dcRule()} // dcRule (OCJoin) is the fallback rule
	det, err := NewIncrementalDetector(ctx, rules)
	if err != nil {
		t.Fatal(err)
	}
	first, err := det.Detect(rel, rel.ByID(), nil)
	if err != nil {
		t.Fatal(err)
	}
	before := ctx.Stats().Snapshot().Stages
	again, err := det.Detect(rel, rel.ByID(), []int64{})
	if err != nil {
		t.Fatal(err)
	}
	if after := ctx.Stats().Snapshot().Stages; after != before {
		t.Errorf("Detect with no changes ran %d stages", after-before)
	}
	assertSameViolations(t, again, first, "cached re-assembly")

	// A change marks the fallback rule stale; Observe must not re-run it
	// (only the FD's touched block), Detect must.
	idx := rel.ByID()
	rel.Tuples[idx[3]].Cells[2] = model.S("Rewritten")
	if err := det.Observe(rel, rel.ByID(), []int64{3}); err != nil {
		t.Fatal(err)
	}
	full, err := DetectRules(ctx, rules, rel)
	if err != nil {
		t.Fatal(err)
	}
	res, err := det.Detect(rel, rel.ByID(), []int64{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameViolations(t, res, full, "stale fallback refresh")
}

func TestIncrementalNoChanges(t *testing.T) {
	ctx := engine.New(2)
	rel := mutableTax(60, 6, 1)
	det, _ := NewIncrementalDetector(ctx, []*Rule{fdRule()})
	first, err := det.Detect(rel, rel.ByID(), nil)
	if err != nil {
		t.Fatal(err)
	}
	again, err := det.Detect(rel, rel.ByID(), []int64{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameViolations(t, again, first, "no-op update")
}

// blockedFD is fdRule without its identity Scope, so it qualifies for
// block-incremental maintenance (fdRule itself takes the fallback path).
func blockedFD() *Rule {
	r := fdRule()
	r.Scope = nil
	return r
}

// TestIncrementalMatchesScratch is the incremental ≡ from-scratch
// property: a seeded mix of appends, updates that move a tuple to another
// block, updates that keep its key, and updates only the fallback DC rule
// sees. After every step Detect must equal DetectRules over the relation,
// and the block-membership index must equal the one a fresh prime builds.
func TestIncrementalMatchesScratch(t *testing.T) {
	ctx := engine.New(2)
	rules := []*Rule{blockedFD(), dcRule()}
	whole := mutableTax(400, 30, 21)
	rel := model.NewRelation(whole.Name, whole.Schema)
	rel.Append(whole.Tuples[:100]...)
	det, err := NewIncrementalDetector(ctx, rules)
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
				rel.Tuples[i].Cells[2] = model.S(fmt.Sprintf("C%d", 10000+r.Intn(30)))
				touch(i)
			}
		default: // rewrite salary and rate: only the DC sees it
			for n := 1 + r.Intn(5); n > 0; n-- {
				i := r.Intn(rel.Len())
				rel.Tuples[i].Cells[4] = model.F(float64(r.Intn(8)))
				rel.Tuples[i].Cells[5] = model.F(float64(r.Intn(8)))
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
		want, err := DetectRules(ctx, rules, rel)
		if err != nil {
			t.Fatal(err)
		}
		assertSameViolations(t, got, want, fmt.Sprintf("step %d", step))

		fresh, err := NewIncrementalDetector(ctx, rules)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fresh.Detect(rel, idx, nil); err != nil {
			t.Fatal(err)
		}
		gotKeys, gotMembers := det.BlockIndex(0)
		wantKeys, wantMembers := fresh.BlockIndex(0)
		if !maps.Equal(gotKeys, wantKeys) {
			t.Fatalf("step %d: tuple → block map differs from a fresh prime", step)
		}
		if !maps.EqualFunc(gotMembers, wantMembers, slices.Equal[[]int64]) {
			t.Fatalf("step %d: block members differ from a fresh prime", step)
		}
	}
}

// TestIncrementalAssemblyOrder: two detectors fed the same history return
// their fix sets in the same order, rules by index and blocks in
// first-seen order.
func TestIncrementalAssemblyOrder(t *testing.T) {
	ctx := engine.New(2)
	rules := []*Rule{blockedFD(), dcRule()}
	run := func() [][]string {
		rel := mutableTax(200, 20, 8)
		det, err := NewIncrementalDetector(ctx, rules)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]string
		record := func(res *DetectResult) {
			var keys []string
			for _, fs := range res.FixSets {
				keys = append(keys, fs.Violation.Key())
			}
			out = append(out, keys)
		}
		res, err := det.Detect(rel, rel.ByID(), nil)
		if err != nil {
			t.Fatal(err)
		}
		record(res)
		for i := 0; i < 40; i += 4 {
			rel.Tuples[i].Cells[1] = model.I(int64(10000 + i%7))
			res, err := det.Detect(rel, rel.ByID(), []int64{rel.Tuples[i].ID})
			if err != nil {
				t.Fatal(err)
			}
			record(res)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if !slices.Equal(a[i], b[i]) {
			t.Fatalf("pass %d: fix-set order differs between identical runs", i)
		}
	}
}
