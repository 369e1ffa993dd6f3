package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bigdansing/internal/engine"
	"bigdansing/internal/model"
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
// row-dropping Scope, carrying a hand-built block kernel — the full
// Scope→Block→Detect chain without a per-pair Detect call.
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
				model.NewCell(l.ID, 2, l.Cell(2)),
				model.NewCell(r.ID, 2, r.Cell(2)),
			)}
		},
		GenFix: func(v model.Violation) []model.Fix {
			return []model.Fix{model.NewCellFix(v.Cells[0], model.OpEQ, v.Cells[1])}
		},
	}
	r.DetectBlock = func(us []model.Tuple, ordered bool) ([]model.FixSet, int64) {
		n := len(us)
		cities := make([]model.Value, n)
		for i, t := range us {
			cities[i] = t.Cell(2)
		}
		var out []model.FixSet
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if cities[i].Equal(cities[j]) {
					continue
				}
				out = append(out, model.FixSet{Violation: model.NewViolation("vfd",
					model.NewCell(us[i].ID, 2, cities[i]),
					model.NewCell(us[j].ID, 2, cities[j]),
				)})
			}
		}
		return out, int64(n) * int64(n-1) / 2
	}
	return r
}

// vecUnaryRule flags rows whose rate is NaN-or-negative-zero-normalized
// equal to 0 — the single-unit enumeration.
func vecUnaryRule() *Rule {
	return &Rule{
		ID:    "vzero",
		Unary: true,
		Detect: func(it Item) []model.Violation {
			t := it.One()
			if !t.Cell(5).Equal(model.F(0)) {
				return nil
			}
			return []model.Violation{model.NewViolation("vzero",
				model.NewCell(t.ID, 5, t.Cell(5)))}
		},
	}
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

// perPairReference runs r's per-pair Detect over tuples on a local engine of
// the given parallelism, with its block kernel stripped: the result, in
// order, every kernel must reproduce at that parallelism.
func perPairReference(t *testing.T, r *Rule, rel *model.Relation, parallelism int) *DetectResult {
	t.Helper()
	ref := *r
	ref.DetectBlock = nil
	want, err := DetectRule(engine.New(parallelism), &ref, rel)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func TestVecPipelineEquivalence(t *testing.T) {
	rel := vecTaxData(500, 7)
	for _, rule := range []*Rule{vecScopedFDRule(), vecUnaryRule()} {
		for _, par := range []int{1, 3, 4} {
			want := perPairReference(t, rule, rel, par)
			if len(want.Violations) == 0 {
				t.Fatalf("rule %s: test data produced no violations", rule.ID)
			}
			got, err := DetectRule(engine.New(par), rule, rel)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, want, got, fmt.Sprintf("%s parallelism=%d", rule.ID, par))
		}
	}
}

func TestVecFallbackResultsMatch(t *testing.T) {
	// A custom Iterate bypasses the block kernel and must produce the
	// per-pair reference's exact result.
	rel := vecTaxData(200, 11)
	custom := vecScopedFDRule()
	custom.Iterate = func(blocks [][]model.Tuple) []Item { return PairsUnique(blocks) }

	for _, par := range []int{1, 4} {
		want := perPairReference(t, custom, rel, par)
		got, err := DetectRule(engine.New(par), custom, rel)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, want, got, fmt.Sprintf("custom-iterate parallelism=%d", par))
	}
}
