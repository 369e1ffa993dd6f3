package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bigdansing/internal/engine"
	"bigdansing/internal/model"
	"bigdansing/internal/storage"
)

// vecTaxData generates a relation with plenty of block collisions, NaN,
// -0, nulls and cross-kind numerics, so equivalence tests exercise the
// normalization corners.
func vecTaxData(n int, seed int64) *model.Relation {
	rng := rand.New(rand.NewSource(seed))
	s := model.MustParseSchema("name,zipcode:int,city,state,salary:float,rate:float")
	rel := model.NewRelation("tax", s)
	cities := []string{"NY", "LA", "CH", "SF", ""}
	for i := 0; i < n; i++ {
		city := model.S(cities[rng.Intn(len(cities))])
		var rate model.Value
		switch rng.Intn(5) {
		case 0:
			rate = model.F(math.NaN())
		case 1:
			rate = model.F(math.Copysign(0, -1))
		case 2:
			rate = model.I(int64(rng.Intn(4))) // cross-kind vs float rates
		case 3:
			rate = model.Null()
		default:
			rate = model.F(float64(rng.Intn(40)))
		}
		rel.Append(model.NewTuple(int64(i+1),
			model.S(fmt.Sprintf("p%d", i)),
			model.I(int64(rng.Intn(12))),
			city,
			model.S("ST"),
			model.F(float64(rng.Intn(9000))),
			rate,
		))
	}
	return rel
}

// vecScopedFDRule is a handwritten FD-style rule (zipcode -> city) with a
// row-dropping Scope, carrying a hand-built Scope kernel and block kernel —
// the full Scope→Block→Detect chain without a per-pair Detect call.
func vecScopedFDRule() *Rule {
	scopeKeep := func(city model.Value) bool { return !city.Equal(model.S("")) }
	r := &Rule{
		ID: "vfd",
		Scope: func(t model.Tuple) []model.Tuple {
			if !scopeKeep(t.Cell(2)) {
				return nil
			}
			return []model.Tuple{t}
		},
		Block:     func(t model.Tuple) model.Value { return t.Cell(1) },
		Symmetric: true,
		Detect: func(it Item) []model.Violation {
			l, r := it.Left(), it.Right()
			if l.Cell(2).Equal(r.Cell(2)) {
				return nil
			}
			return []model.Violation{model.NewViolation("vfd",
				model.NewCell(l.ID, 2, "city", l.Cell(2)),
				model.NewCell(r.ID, 2, "city", r.Cell(2)),
			)}
		},
		GenFix: func(v model.Violation) []model.Fix {
			return []model.Fix{model.NewCellFix(v.Cells[0], model.OpEQ, v.Cells[1])}
		},
	}
	r.Vec = &VecForms{
		ScanCols: []int{2}, // the Scope kernel indexes Cols[2] directly
		Scope: func(b *model.Batch) *model.Batch {
			s := b.CloneSel()
			cities := s.Cols[2]
			s.ForEachLive(func(row int) {
				if !scopeKeep(cities[row]) {
					s.Kill(row)
				}
			})
			return s
		},
	}
	r.DetectBlock = func(us []model.Tuple, ordered bool) []model.Violation {
		n := len(us)
		cities := make([]model.Value, n)
		for i, t := range us {
			cities[i] = t.Cell(2)
		}
		var out []model.Violation
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if cities[i].Equal(cities[j]) {
					continue
				}
				out = append(out, model.NewViolation("vfd",
					model.NewCell(us[i].ID, 2, "city", cities[i]),
					model.NewCell(us[j].ID, 2, "city", cities[j]),
				))
			}
		}
		return out
	}
	return r
}

// vecUnaryRule flags rows whose rate is NaN-or-negative-zero-normalized
// equal to 0 — it exercises the unary DetectBatch kernel.
func vecUnaryRule() *Rule {
	r := &Rule{
		ID:    "vzero",
		Unary: true,
		Detect: func(it Item) []model.Violation {
			t := it.One()
			if !t.Cell(5).Equal(model.F(0)) {
				return nil
			}
			return []model.Violation{model.NewViolation("vzero",
				model.NewCell(t.ID, 5, "rate", t.Cell(5)))}
		},
	}
	r.Vec = &VecForms{
		ScanCols: []int{5}, // the Detect kernel indexes Cols[5] directly
		DetectBatch: func(b *model.Batch) []model.Violation {
			var out []model.Violation
			rates := b.Cols[5]
			b.ForEachLive(func(row int) {
				if rates[row].Equal(model.F(0)) {
					out = append(out, model.NewViolation("vzero",
						model.NewCell(b.IDs[row], 5, "rate", rates[row])))
				}
			})
			return out
		},
	}
	return r
}

// requireSameResult asserts two detection results are identical: same
// violations in the same order, same fix counts.
func requireSameResult(t *testing.T, want, got *DetectResult, label string) {
	t.Helper()
	if len(want.Violations) != len(got.Violations) {
		t.Fatalf("%s: %d violations, want %d", label, len(got.Violations), len(want.Violations))
	}
	for i := range want.Violations {
		if want.Violations[i].MapKey() != got.Violations[i].MapKey() {
			t.Fatalf("%s: violation %d differs:\n  want %v\n  got  %v",
				label, i, want.Violations[i], got.Violations[i])
		}
		if len(want.FixSets[i].Fixes) != len(got.FixSets[i].Fixes) {
			t.Fatalf("%s: violation %d fix count differs", label, i)
		}
	}
}

// perPairReference runs r's per-pair Detect over tuples on the local engine,
// with its block and batch kernels stripped: the result every kernel and
// every source format must reproduce.
func perPairReference(t *testing.T, r *Rule, rel *model.Relation) *DetectResult {
	t.Helper()
	ref := *r
	ref.DetectBlock, ref.Vec = nil, nil
	want, err := DetectRule(engine.New(4), &ref, rel)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func TestVecPipelineEquivalence(t *testing.T) {
	rel := vecTaxData(500, 7)
	for _, rule := range []*Rule{vecScopedFDRule(), vecUnaryRule()} {
		want := perPairReference(t, rule, rel)
		if len(want.Violations) == 0 {
			t.Fatalf("rule %s: test data produced no violations", rule.ID)
		}
		for _, size := range []int{0, 1, 3, 64, 1024} {
			ctx := mustContext(t, engine.Config{Parallelism: 4, BatchSize: size})
			got, err := DetectRule(ctx, rule, rel)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, want, got, fmt.Sprintf("%s batch=%d", rule.ID, size))
		}
	}
}

// TestVecEligibilityFallbacks: a branch is scanned as column batches only
// when the context sets a batch size and a batch kernel consumes them — the
// Scope kernel of its one scope, or a scope-free unary DetectBatch. Every
// other branch reads tuples.
func TestVecEligibilityFallbacks(t *testing.T) {
	ex := newSparkExec(mustContext(t, engine.Config{Parallelism: 2, BatchSize: 8}))
	rel := vecTaxData(10, 1)

	mustPlan := func(r *Rule) *PhysicalPipeline {
		t.Helper()
		pp, err := compilePlan(ex.ctx, nil, func() (*LogicalPlan, error) { return PlanRule(r, rel) })
		if err != nil {
			t.Fatal(err)
		}
		return &pp.Pipelines[0]
	}
	batchScans := func(p *PhysicalPipeline) bool {
		for _, b := range p.Branches {
			if !ex.batchScan(p, b) {
				return false
			}
		}
		return true
	}

	if !batchScans(mustPlan(vecScopedFDRule())) {
		t.Error("scoped rule with a Scope kernel should read batches")
	}
	if !batchScans(mustPlan(vecUnaryRule())) {
		t.Error("unary rule with DetectBatch should read batches")
	}

	// No batch kernels at all.
	plain := vecScopedFDRule()
	plain.Vec = nil
	if batchScans(mustPlan(plain)) {
		t.Error("rule without batch kernels must read tuples")
	}
	// A Scope with no kernel.
	noVecScope := vecScopedFDRule()
	noVecScope.Vec.Scope = nil
	if batchScans(mustPlan(noVecScope)) {
		t.Error("scoped rule without a Scope kernel must read tuples")
	}
	// A unary rule without DetectBatch has no batch consumer.
	noDetectBatch := vecUnaryRule()
	noDetectBatch.Vec.DetectBatch = nil
	if batchScans(mustPlan(noDetectBatch)) {
		t.Error("unary rule without DetectBatch must read tuples")
	}
	// A scope-free pair rule has no batch consumer either.
	unscoped := vecScopedFDRule()
	unscoped.Scope = nil
	if batchScans(mustPlan(unscoped)) {
		t.Error("scope-free pair rule must read tuples")
	}
	// Batches are a scan format: the Scope kernel still feeds a custom
	// Iterate and both sides of a CoBlock.
	custom := vecScopedFDRule()
	custom.Iterate = func(blocks [][]model.Tuple) []Item { return PairsUnique(blocks) }
	if p := mustPlan(custom); p.Impl != IterCustom || !batchScans(p) {
		t.Errorf("custom Iterate (impl %v) should scan batches through its Scope kernel", p.Impl)
	}
	cob := vecScopedFDRule()
	cob.BlockRight = func(t model.Tuple) model.Value { return t.Cell(2) }
	if p := mustPlan(cob); p.Impl != IterCoBlockPairs || !batchScans(p) {
		t.Errorf("CoBlock (impl %v) should scan batches through its Scope kernel", p.Impl)
	}
	// Tuple scans configured (BatchSize 0).
	exTuple := newSparkExec(engine.New(2))
	p := mustPlan(vecScopedFDRule())
	if exTuple.batchScan(p, p.Branches[0]) {
		t.Error("BatchSize 0 must never read batches")
	}
}

func TestVecFallbackResultsMatch(t *testing.T) {
	// A custom Iterate under a configured batch size must produce the
	// per-pair reference's exact result.
	rel := vecTaxData(200, 11)
	custom := vecScopedFDRule()
	custom.Iterate = func(blocks [][]model.Tuple) []Item { return PairsUnique(blocks) }

	want := perPairReference(t, custom, rel)
	for _, size := range []int{0, 16} {
		got, err := DetectRule(mustContext(t, engine.Config{Parallelism: 4, BatchSize: size}), custom, rel)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, want, got, fmt.Sprintf("custom-iterate batch=%d", size))
	}
}

func TestDetectRuleOnBatchesMatchesTuples(t *testing.T) {
	rel := vecTaxData(300, 3)
	want := perPairReference(t, vecScopedFDRule(), rel)

	// Column batches standing in for a storage read (no row backing).
	var batches []*model.Batch
	for _, b := range model.MakeBatches(rel.Tuples, rel.Schema.Len(), 128) {
		cols := make([][]model.Value, len(b.Cols))
		copy(cols, b.Cols)
		batches = append(batches, model.NewBatch(b.IDs, cols))
	}
	shell := model.NewRelation("tax", rel.Schema)

	for _, size := range []int{0, 50, 1024} {
		ctx := mustContext(t, engine.Config{Parallelism: 4, BatchSize: size})
		got, err := DetectRuleOnBatches(ctx, vecScopedFDRule(), shell, batches)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, want, got, fmt.Sprintf("on-batches size=%d", size))
	}
}

func TestVecPushdownFromStore(t *testing.T) {
	rel := vecTaxData(250, 9)
	st, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rule := vecScopedFDRule()
	rule.BlockAttr = "zipcode"
	if _, err := st.Upload(rel, "zipcode", 5); err != nil {
		t.Fatal(err)
	}

	want, usedWant, err := DetectRuleFromStore(engine.New(4), st, "tax", rule)
	if err != nil {
		t.Fatal(err)
	}
	got, usedGot, err := DetectRuleFromStore(
		mustContext(t, engine.Config{Parallelism: 4, BatchSize: 32}), st, "tax", rule)
	if err != nil {
		t.Fatal(err)
	}
	if !usedWant || !usedGot {
		t.Fatalf("block pushdown should engage on both paths (tuple=%v, batch=%v)", usedWant, usedGot)
	}
	if len(want.Violations) == 0 {
		t.Fatal("pushdown test data produced no violations")
	}
	requireSameResult(t, want, got, "pushdown")

	// The whole-read fallback (no matching replica attribute) too.
	rule2 := vecScopedFDRule()
	want2, _, err := DetectRuleFromStore(engine.New(4), st, "tax", rule2)
	if err != nil {
		t.Fatal(err)
	}
	got2, _, err := DetectRuleFromStore(
		mustContext(t, engine.Config{Parallelism: 4, BatchSize: 32}), st, "tax", rule2)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, want2, got2, "pushdown whole-read fallback")
}

func TestRechunkWindows(t *testing.T) {
	rel := vecTaxData(25, 5)
	pre := model.MakeBatches(rel.Tuples, rel.Schema.Len(), 10) // 10,10,5
	out := rechunk(pre, 4)
	var rows int
	next := 0
	for _, b := range out {
		if b.Len() > 4 {
			t.Fatalf("rechunk produced a %d-row batch, cap 4", b.Len())
		}
		for r := 0; r < b.Len(); r++ {
			if b.IDs[r] != rel.Tuples[next].ID {
				t.Fatalf("rechunk reordered rows at %d", next)
			}
			next++
		}
		rows += b.Len()
	}
	if rows != 25 {
		t.Fatalf("rechunk dropped rows: %d/25", rows)
	}
	// Larger target than inputs: batches pass through untouched.
	same := rechunk(pre, 100)
	if len(same) != len(pre) || same[0] != pre[0] {
		t.Fatal("rechunk should pass through batches already under the size")
	}
}
