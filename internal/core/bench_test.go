package core

import (
	"fmt"
	"math/rand"
	"testing"

	"bigdansing/internal/engine"
	"bigdansing/internal/model"
)

// Keying-layer micro-benchmarks: the per-record cost of turning tuples into
// block groups and of deduplicating violations — the constant factors the
// paper's scalability figures (9 and 11) depend on.

func benchTuples(n int, seed int64) []model.Tuple {
	r := rand.New(rand.NewSource(seed))
	out := make([]model.Tuple, n)
	for i := range out {
		out[i] = model.NewTuple(int64(i),
			model.S(fmt.Sprintf("zip%d", r.Intn(n/20+1))),
			model.I(int64(r.Intn(1000))),
			model.F(float64(r.Intn(1000))/7),
		)
	}
	return out
}

// BenchmarkBlockGroup measures the Block path: key every tuple on one cell
// and group — the shape of every FD/CFD detection pipeline's shuffle.
func BenchmarkBlockGroup(b *testing.B) {
	ctx := engine.New(4)
	tuples := benchTuples(100000, 42)
	block := func(t model.Tuple) model.Value { return t.Cell(0) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := engine.Parallelize(ctx, tuples, 0)
		if _, err := engine.GroupBy(d, func(t model.Tuple) model.ValueKey { return block(t).MapKey() }).Count(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchFixSets(n int) []model.FixSet {
	out := make([]model.FixSet, 0, n)
	for i := 0; i < n; i++ {
		// Every violation emitted twice (both orientations), the SQL
		// self-join duplication dedup exists to remove.
		l := model.NewCell(int64(i), 2, model.S("a"))
		r := model.NewCell(int64(i+n), 2, model.S("b"))
		v1 := model.NewViolation("phi1", l, r)
		v2 := model.NewViolation("phi1", r, l)
		out = append(out, model.FixSet{Violation: v1}, model.FixSet{Violation: v2})
	}
	return out
}

// BenchmarkViolationDedup measures the detect→repair hand-off, assemble:
// concatenating per-group fix-set lists (16 fix sets a group here) and
// dropping the repeated violations.
func BenchmarkViolationDedup(b *testing.B) {
	sets := benchFixSets(50000)
	var lists [][]model.FixSet
	for lo := 0; lo < len(sets); lo += 16 {
		lists = append(lists, sets[lo:min(lo+16, len(sets))])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := assemble([]detected{{lists: lists}}); len(res.Violations) != 50000 {
			b.Fatalf("got %d", len(res.Violations))
		}
	}
}

// benchDetectRel is tax-shaped data with bench-friendly blocking: zipcode
// cardinality scales with n so blocks stay ~16 rows and one iteration is a
// realistic FD scan, not a quadratic blowup inside a handful of huge blocks
// (vecTaxData's 12-zipcode domain is built for equivalence tests, not timing).
func benchDetectRel(n int, seed int64) *model.Relation {
	rng := rand.New(rand.NewSource(seed))
	s := model.MustParseSchema("name,zipcode:int,city,state,salary:float,rate:float")
	rel := model.NewRelation("tax", s)
	cities := []string{"NY", "LA", "CH", "SF", ""}
	zipCard := n/16 + 1
	for i := 0; i < n; i++ {
		var rate model.Value
		if rng.Intn(4) == 0 {
			rate = model.F(0)
		} else {
			rate = model.F(float64(rng.Intn(40)))
		}
		rel.Append(model.NewTuple(int64(i+1),
			model.S(fmt.Sprintf("p%d", i)),
			model.I(int64(rng.Intn(zipCard))),
			model.S(cities[rng.Intn(len(cities))]),
			model.S("ST"),
			model.F(float64(rng.Intn(9000))),
			rate,
		))
	}
	return rel
}

// BenchmarkDetectScan measures a full Scope→Block→Detect scan over the
// handwritten rules of exec_vector_test.go: a scoped FD over a blocked pair
// kernel and a unary constant-predicate rule.
func BenchmarkDetectScan(b *testing.B) {
	rel := benchDetectRel(20000, 42)
	ctx := engine.New(4)
	run := func(name string, r *Rule) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DetectRule(ctx, r, rel); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("fd-tuple", vecScopedFDRule())
	run("unary-tuple", vecUnaryRule())
}
