package rules

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bigdansing/internal/cleanse"
	"bigdansing/internal/core"
	"bigdansing/internal/engine"
	"bigdansing/internal/model"
)

// vecRandomTax generates tax-shaped data dense in block collisions and in
// the value-normalization corners: NaN, -0, nulls and cross-kind numerics
// (I(1), F(1) and S("1") are all Equal). Most blocks are skewed the way real
// ones are — about nine in ten tuples of a zipcode share its city — and a
// few zipcodes hold only one city, so some blocks agree throughout.
func vecRandomTax(n int, seed int64) *model.Relation {
	rng := rand.New(rand.NewSource(seed))
	s := model.MustParseSchema("name,zipcode:int,city,state,salary:float,rate:float")
	rel := model.NewRelation("tax", s)
	cities := []string{"NY", "LA", "CH", "SF"}
	states := []string{"NY", "CA", "IL"}
	for i := 0; i < n; i++ {
		var rate model.Value
		switch rng.Intn(7) {
		case 0:
			rate = model.F(math.NaN())
		case 1:
			rate = model.F(math.Copysign(0, -1))
		case 2:
			rate = model.I(int64(rng.Intn(5)))
		case 3:
			rate = model.Null()
		case 4:
			rate = model.S("1")
		default:
			rate = model.F(float64(rng.Intn(30)))
		}
		zip := rng.Intn(15)
		city := cities[zip%len(cities)]
		if zip >= 3 && rng.Intn(10) == 0 { // zipcodes 0-2 never dissent
			city = cities[rng.Intn(len(cities))]
		}
		rel.Append(model.NewTuple(int64(i+1),
			model.S(fmt.Sprintf("p%d", i)),
			model.I(int64(zip)),
			model.S(city),
			model.S(states[rng.Intn(len(states))]),
			model.F(float64(rng.Intn(5000))),
			rate,
		))
	}
	return rel
}

// requireSameDetect asserts the compiled rule's kernels reproduce its
// per-pair Detect (kernels stripped, local engine of the same parallelism)
// violation for violation, in order.
func requireSameDetect(t *testing.T, r *core.Rule, rel *model.Relation) {
	t.Helper()
	ref := *r
	ref.DetectBlock = nil
	for _, par := range []int{1, 4} {
		want, err := core.DetectRule(engine.New(par), &ref, rel)
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.DetectRule(engine.New(par), r, rel)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Violations) != len(want.Violations) {
			t.Fatalf("%s parallelism=%d rows=%d: %d violations, want %d",
				r.ID, par, rel.Len(), len(got.Violations), len(want.Violations))
		}
		for i := range want.Violations {
			if want.Violations[i].MapKey() != got.Violations[i].MapKey() {
				t.Fatalf("%s parallelism=%d: violation %d differs:\n  want %v\n  got  %v",
					r.ID, par, i, want.Violations[i], got.Violations[i])
			}
			if len(want.FixSets[i].Fixes) != len(got.FixSets[i].Fixes) {
				t.Fatalf("%s parallelism=%d: violation %d fix count differs", r.ID, par, i)
			}
		}
	}
}

func TestVecFDEquivalence(t *testing.T) {
	schema := model.MustParseSchema("name,zipcode:int,city,state,salary:float,rate:float")
	compile := func(spec string) *core.Rule {
		fd, err := ParseFD("fd", spec)
		if err != nil {
			t.Fatal(err)
		}
		r, err := fd.Compile(schema)
		if err != nil {
			t.Fatal(err)
		}
		if r.DetectBlock == nil {
			t.Fatalf("compiled FD %q should carry a block kernel", spec)
		}
		return r
	}
	single := compile("zipcode -> city")
	multi := compile("zipcode, state -> city, rate")
	rs := []*core.Rule{single, multi,
		compile("zipcode -> city, city"), // every violation twice: dedup keeps one
		compile("zipcode -> rate"),       // the corners: NaN, -0, NULL, cross-kind
		compile("zipcode, state -> city"),
	}
	// Empty, single-row, short-tail and full-size relations.
	for _, n := range []int{0, 1, 5, 400} {
		rel := vecRandomTax(n, int64(n)+21)
		for _, r := range rs {
			requireSameDetect(t, r, rel)
		}
	}
}

func TestVecDCEquivalence(t *testing.T) {
	schema := model.MustParseSchema("name,zipcode:int,city,state,salary:float,rate:float")
	compile := func(spec string) *core.Rule {
		t.Helper()
		dc, err := ParseDC("dc", spec)
		if err != nil {
			t.Fatal(err)
		}
		r, err := dc.Compile(schema)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	rel := vecRandomTax(400, 42)

	// Unary (constant predicates): single units, no block kernel.
	unary := compile("t1.salary > 2500 & t1.rate < 3")
	if !unary.Unary || unary.DetectBlock != nil {
		t.Fatal("unary DC should compile a single-unit rule without a block kernel")
	}
	requireSameDetect(t, unary, rel)

	// Blocked symmetric (same attribute both sides): unique pairs through
	// the block kernel.
	sym := compile("t1.city = t2.city & t1.state != t2.state")
	if sym.DetectBlock == nil {
		t.Fatal("same-key blocked DC should compile a block kernel")
	}
	requireSameDetect(t, sym, rel)

	// Blocked asymmetric: ordered pairs through the block kernel, then dedup.
	asym := compile("t1.zipcode = t2.zipcode & t1.salary > t2.salary & t1.rate < 20")
	if asym.DetectBlock == nil {
		t.Fatal("same-key blocked DC should compile a block kernel")
	}
	requireSameDetect(t, asym, rel)

	// CoBlock pairs across two keys: no block kernel.
	cob := compile("t1.city = t2.state & t1.salary < t2.salary")
	if cob.DetectBlock != nil || cob.BlockRight == nil {
		t.Fatal("CoBlock DC should co-group and carry no block kernel")
	}
	requireSameDetect(t, cob, vecRandomTax(120, 5))

	// The OCJoin shape compiles no kernels.
	ocj := compile("t1.salary > t2.salary & t1.rate < t2.rate")
	if ocj.DetectBlock != nil {
		t.Fatal("OCJoin-shaped DC should carry no kernels")
	}
	requireSameDetect(t, ocj, vecRandomTax(120, 8))

	// Short tails and empty input for the unary rule.
	for _, n := range []int{0, 1, 5} {
		requireSameDetect(t, unary, vecRandomTax(n, int64(n)+3))
	}
}

func TestVecCleanEquivalence(t *testing.T) {
	// Full FD+DC cleansing loop: the compiled block kernels must produce the
	// exact repaired instance the per-pair Detect produces.
	schema := model.MustParseSchema("name,zipcode:int,city,state,salary:float,rate:float")
	rel := vecRandomTax(300, 77)

	buildRules := func(kernels bool) []*core.Rule {
		fd, err := ParseFD("fd1", "zipcode -> city")
		if err != nil {
			t.Fatal(err)
		}
		fdr, err := fd.Compile(schema)
		if err != nil {
			t.Fatal(err)
		}
		dc, err := ParseDC("dc1", "t1.city = t2.city & t1.state != t2.state")
		if err != nil {
			t.Fatal(err)
		}
		dcr, err := dc.Compile(schema)
		if err != nil {
			t.Fatal(err)
		}
		if fdr.DetectBlock == nil || dcr.DetectBlock == nil {
			t.Fatal("compiled FD and same-key DC should carry block kernels")
		}
		if !kernels {
			fdr.DetectBlock, dcr.DetectBlock = nil, nil
		}
		return []*core.Rule{fdr, dcr}
	}

	clean := func(kernels bool) *cleanse.Result {
		t.Helper()
		c, err := cleanse.NewCleaner(nil, buildRules(kernels), cleanse.WithMaxIterations(4),
			cleanse.WithEngineConfig(engine.Config{Parallelism: 4}))
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Clean(rel)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	want, got := clean(false), clean(true)
	if got.Clean.Len() != want.Clean.Len() {
		t.Fatalf("%d tuples, want %d", got.Clean.Len(), want.Clean.Len())
	}
	for i := range want.Clean.Tuples {
		w, g := want.Clean.Tuples[i], got.Clean.Tuples[i]
		if w.ID != g.ID {
			t.Fatalf("tuple %d id %d, want %d", i, g.ID, w.ID)
		}
		for c := 0; c < schema.Len(); c++ {
			if !w.Cell(c).Equal(g.Cell(c)) {
				t.Fatalf("tuple %d col %d: %v, want %v", i, c, g.Cell(c), w.Cell(c))
			}
		}
	}
	wr, gr := want.Report(), got.Report()
	if wr.InitialViolations != gr.InitialViolations || wr.Iterations != gr.Iterations {
		t.Fatalf("report differs: %d/%d violations, %d/%d iterations",
			gr.InitialViolations, wr.InitialViolations, gr.Iterations, wr.Iterations)
	}
}
