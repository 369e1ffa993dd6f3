package rules

import (
	"fmt"
	"math"
	"testing"

	"bigdansing/internal/core"
	"bigdansing/internal/model"
)

// kernelSchema is the schema of the hand-built kernel blocks: two LHS and
// two RHS columns, whose cells may be of any kind.
var kernelSchema = model.MustParseSchema("k1:int,k2,r1,r2")

func compileFD(t testing.TB, spec string) *core.Rule {
	t.Helper()
	fd, err := ParseFD("fd", spec)
	if err != nil {
		t.Fatal(err)
	}
	r, err := fd.Compile(kernelSchema)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// pairReference runs the rule's per-pair Detect over one block in the
// executor's pair order and returns the violations, the pairs enumerated
// and the pairs that violate.
func pairReference(r *core.Rule, us []model.Tuple, ordered bool) (vs []model.Violation, pairs, violating int64) {
	iterate := core.PairsUnique
	if ordered {
		iterate = core.PairsOrdered
	}
	for _, it := range iterate([][]model.Tuple{us}) {
		found := r.Detect(it)
		vs = append(vs, found...)
		pairs++
		if len(found) > 0 {
			violating++
		}
	}
	return vs, pairs, violating
}

// checkKernel asserts the rule's block kernel finds the reference's
// violations in the reference's order, and counts between the violating
// pairs and every pair — exactly the violating pairs when exact is set.
func checkKernel(t testing.TB, r *core.Rule, us []model.Tuple, ordered, exact bool) {
	t.Helper()
	got, pairs := r.DetectBlock(us, ordered)
	want, all, violating := pairReference(r, us, ordered)
	if len(got) != len(want) {
		t.Fatalf("ordered=%v: %d violations, want %d:\n got  %v\n want %v", ordered, len(got), len(want), got, want)
	}
	for i := range want {
		if !sameViolation(got[i].Violation, want[i]) || got[i].Fixes != nil {
			t.Fatalf("ordered=%v: fix set %d is %v, want %v with no fixes", ordered, i, got[i], want[i])
		}
	}
	if pairs < violating || pairs > all {
		t.Fatalf("ordered=%v: %d pairs reported, want between the %d violating and all %d", ordered, pairs, violating, all)
	}
	if exact && pairs != violating {
		t.Fatalf("ordered=%v: %d pairs reported, want the %d violating", ordered, pairs, violating)
	}
}

// sameViolation reports whether two violations are identical, down to the
// bits of their cells' values (so -0 is not +0, and NaN is NaN).
func sameViolation(a, b model.Violation) bool {
	if a.RuleID != b.RuleID || len(a.Cells) != len(b.Cells) {
		return false
	}
	for i, c := range a.Cells {
		d := b.Cells[i]
		if c.TupleID != d.TupleID || c.Col != d.Col || c.Value.Kind != d.Value.Kind ||
			c.Value.Str != d.Value.Str || c.Value.Int != d.Value.Int || math.Float64bits(c.Value.Flt) != math.Float64bits(d.Value.Flt) {
			return false
		}
	}
	return true
}

// kernelBlock builds an n-member block: every member has k1 = 7, k2 = "s",
// and the RHS cells rhs(i) returns.
func kernelBlock(n int, rhs func(i int) (r1, r2 model.Value)) []model.Tuple {
	us := make([]model.Tuple, n)
	for i := range us {
		r1, r2 := rhs(i)
		us[i] = model.NewTuple(int64(100+i), model.I(7), model.S("s"), r1, r2)
	}
	return us
}

// TestFDBlockKernelMatchesPairs calls the compiled FD kernels directly on
// hand-built blocks: each must reproduce the per-pair Detect in pair order,
// both orders, and a block that sub-groups must count exactly its violating
// pairs (none for a block that agrees).
func TestFDBlockKernelMatchesPairs(t *testing.T) {
	nan, negZero := model.F(math.NaN()), model.F(math.Copysign(0, -1))
	type block struct {
		name  string
		us    []model.Tuple
		exact bool // the RHS cells sub-group: Equal is transitive on them
	}
	var blocks []block
	// Skewed blocks: about nine in ten members share each RHS value, and
	// the dissenters disagree among themselves too.
	for _, n := range []int{1, 2, 3, 64, 500} {
		blocks = append(blocks, block{fmt.Sprintf("skewed-%d", n), kernelBlock(n, func(i int) (model.Value, model.Value) {
			r1, r2 := model.S("NY"), model.I(1)
			if i%10 == 1 {
				r1 = model.S(fmt.Sprintf("D%d", i%3))
			}
			if i%10 == 4 || i%10 == 1 {
				r2 = model.I(int64(i % 4))
			}
			return r1, r2
		}), true})
	}
	for _, n := range []int{2, 64} {
		blocks = append(blocks, block{fmt.Sprintf("agree-%d", n), kernelBlock(n, func(int) (model.Value, model.Value) {
			return model.S("NY"), model.F(2)
		}), true})
	}
	corners := []struct {
		name  string
		cells []model.Value
		exact bool
	}{
		{"nan", []model.Value{model.F(1), nan, model.F(2), model.F(1), nan, model.F(1)}, false},
		{"neg-zero", []model.Value{model.F(0), negZero, model.F(0), model.F(1), negZero, model.F(0)}, true},
		{"null", []model.Value{model.Null(), model.F(1), model.Null(), model.F(1), model.F(1), model.F(2)}, true},
		{"int-float", []model.Value{model.I(1), model.F(1), model.I(1), model.I(2), model.F(1)}, false},
		{"int-string", []model.Value{model.I(1), model.S("1"), model.I(1), model.S("2"), model.Null()}, false},
		{"ints-null", []model.Value{model.I(1), model.I(1), model.Null(), model.I(2), model.I(1)}, true},
		// Past a float's precision Equal is not transitive: I(2^53+1) and
		// I(2^53) differ, yet both are Equal to F(2^53).
		{"int-float-precision", []model.Value{model.I(1 << 53), model.F(1 << 53), model.I(1<<53 + 1), model.I(1 << 53), model.F(1 << 53)}, false},
	}
	for _, c := range corners {
		blocks = append(blocks, block{c.name, kernelBlock(len(c.cells), func(i int) (model.Value, model.Value) {
			return c.cells[i], c.cells[len(c.cells)-1-i]
		}), c.exact})
	}

	for _, spec := range []string{"k1 -> r1", "k1 -> r1, r2", "k1 -> r1, r1", "k1, k2 -> r1, r2", "k1, k2 -> r2"} {
		r := compileFD(t, spec)
		for _, b := range blocks {
			if len(b.us) > 64 && spec != "k1 -> r1" && spec != "k1, k2 -> r1, r2" {
				continue // the largest block's 250 k ordered pairs, for two shapes only
			}
			t.Run(spec+"/"+b.name, func(t *testing.T) {
				for _, ordered := range []bool{false, true} {
					checkKernel(t, r, b.us, ordered, b.exact)
				}
			})
		}
	}

	// A composite key string can collide across LHS values, so a composite
	// kernel must check the LHS when its block's LHS cells differ.
	mixed := kernelBlock(6, func(i int) (model.Value, model.Value) { return model.S(fmt.Sprint(i % 3)), model.I(1) })
	mixed[2].Cells[1], mixed[4].Cells[1] = model.S("t"), model.S("t")
	for _, ordered := range []bool{false, true} {
		checkKernel(t, compileFD(t, "k1, k2 -> r1, r2"), mixed, ordered, false)
	}
}
