package repair

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"bigdansing/internal/core"
	"bigdansing/internal/datagen"
	"bigdansing/internal/engine"
	"bigdansing/internal/model"
	"bigdansing/internal/rules"
)

// exactAssignment is an Assignment with its float held as bits, so that
// comparing two lists tells -0 from +0 and matches NaN with NaN.
type exactAssignment struct {
	TupleID int64
	Col     int
	Kind    model.Kind
	Str     string
	Int     int64
	Bits    uint64
}

func exactAssignments(as []Assignment) []exactAssignment {
	out := make([]exactAssignment, len(as))
	for i, a := range as {
		out[i] = exactAssignment{a.TupleID, a.Col, a.Value.Kind, a.Value.Str, a.Value.Int, math.Float64bits(a.Value.Flt)}
	}
	return out
}

// randomValue draws from a palette mixing every kind and the float edge
// cases, with few enough distinct values that ties and equal comparisons
// are common. Strings like "-0.7" and "10" make cross-kind comparison
// cyclic (F(-0.5) < "-0.7" < I(-1) < F(-0.5)), so sorted candidates can
// still tie-break out of order.
func randomValue(rng *rand.Rand) model.Value {
	switch rng.Intn(10) {
	case 0:
		return model.Null()
	case 1:
		return model.F(math.NaN())
	case 2:
		return model.F(math.Copysign(0, -1))
	case 3, 4:
		return model.I(int64(rng.Intn(7) - 3))
	case 5, 6:
		return model.F(float64(rng.Intn(13)-6) / 2)
	default:
		return model.S([]string{"a", "b", "c", "1", "2.5", "", "-0.7", "10"}[rng.Intn(8)])
	}
}

// randomComponent builds fix sets over a small pool of cell positions.
// Each occurrence of a position draws its own value and attribute name, so
// the last-write-wins interning is exercised; fixes cover all six ops,
// constant and cell right-hand sides, fixes whose two sides are one cell,
// and fix sets with no fixes.
func randomComponent(rng *rand.Rand) []model.FixSet {
	type pos struct {
		tid int64
		col int
	}
	pool := make([]pos, 1+rng.Intn(10))
	for i := range pool {
		pool[i] = pos{int64(rng.Intn(6)), rng.Intn(3)}
	}
	cell := func() model.Cell {
		p := pool[rng.Intn(len(pool))]
		return model.NewCell(p.tid, p.col, randomValue(rng))
	}
	ops := []model.Op{model.OpEQ, model.OpNEQ, model.OpLT, model.OpGT, model.OpLE, model.OpGE}
	comp := make([]model.FixSet, 1+rng.Intn(14))
	for i := range comp {
		vc := make([]model.Cell, rng.Intn(4))
		for j := range vc {
			vc[j] = cell()
		}
		comp[i].Violation = model.NewViolation("r", vc...)
		comp[i].Fixes = make([]model.Fix, rng.Intn(5))
		for j := range comp[i].Fixes {
			left, op := cell(), ops[rng.Intn(len(ops))]
			switch rng.Intn(10) {
			case 0:
				comp[i].Fixes[j] = model.NewCellFix(left, op, left)
			case 1, 2, 3, 4, 5:
				comp[i].Fixes[j] = model.NewCellFix(left, op, cell())
			default:
				comp[i].Fixes[j] = model.NewConstFix(left, op, randomValue(rng))
			}
		}
	}
	return comp
}

func TestHypergraphMatchesReference(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		for i := 0; i < 1000; i++ {
			rng := rand.New(rand.NewSource(int64(i)))
			comp := randomComponent(rng)
			h := Hypergraph{
				Epsilon:       []float64{0, 0.5, 1, 2.5}[rng.Intn(4)],
				MaxCandidates: []int{0, 1, 2, 3, 32}[rng.Intn(5)],
			}
			want, err := (&referenceHypergraph{h}).Repair(comp)
			if err != nil {
				t.Fatal(err)
			}
			got, err := h.Repair(comp)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(exactAssignments(got), exactAssignments(want)) {
				t.Fatalf("component %d (%+v):\ngot  %v\nwant %v\nfix sets %v", i, h, got, want, comp)
			}
		}
	})
	t.Run("taxb_phi2", func(t *testing.T) {
		dc, err := rules.ParseDC("phi2", "t1.salary > t2.salary & t1.rate < t2.rate")
		if err != nil {
			t.Fatal(err)
		}
		rule, err := dc.Compile(datagen.TaxSchema())
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{1, 2, 3} {
			tr := datagen.TaxB(1000, 0.05, seed)
			res, err := core.DetectRule(engine.New(2), rule, tr.Dirty)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.FixSets) == 0 {
				t.Fatalf("seed %d: no violations", seed)
			}
			want, _, err := RepairParallel(res.FixSets, &referenceHypergraph{}, Options{Parallelism: 2})
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := RepairParallel(res.FixSets, &Hypergraph{}, Options{Parallelism: 2})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) == 0 || !reflect.DeepEqual(exactAssignments(got), exactAssignments(want)) {
				t.Fatalf("seed %d: %d assignments, reference %d", seed, len(got), len(want))
			}
		}
	})
}

func TestHypergraphMaxCandidatesOne(t *testing.T) {
	// The hub has two distinct candidates (<= 3 and <= 5); sampling them
	// down to one used to divide by zero.
	hub := model.NewCell(0, 0, model.F(9))
	var fs []model.FixSet
	for i, v := range []float64{3, 5} {
		other := model.NewCell(int64(i+1), 0, model.F(v))
		fs = append(fs, model.FixSet{
			Violation: model.NewViolation("dc", hub, other),
			Fixes:     []model.Fix{model.NewCellFix(hub, model.OpLE, other)},
		})
	}
	as, err := (&Hypergraph{MaxCandidates: 1}).Repair(fs)
	if err != nil {
		t.Fatal(err)
	}
	want := []Assignment{{TupleID: 0, Col: 0, Value: model.F(3)}}
	if !reflect.DeepEqual(as, want) {
		t.Errorf("assignments = %v, want %v", as, want)
	}
}

func TestValueSatisfyingKeepsKind(t *testing.T) {
	none := model.Value{Kind: 255} // marks "no candidate"
	cases := []struct {
		target model.Value
		eps    float64
		want   map[model.Op]model.Value
	}{
		{model.I(10), 1, map[model.Op]model.Value{
			model.OpEQ: model.I(10), model.OpLE: model.I(10), model.OpGE: model.I(10),
			model.OpLT: model.I(9), model.OpGT: model.I(11), model.OpNEQ: model.I(11),
		}},
		{model.I(10), 0.25, map[model.Op]model.Value{
			model.OpLT: model.I(9), model.OpGT: model.I(11), model.OpNEQ: model.I(11),
		}},
		{model.I(10), 2.5, map[model.Op]model.Value{
			model.OpLT: model.I(7), model.OpGT: model.I(13), model.OpNEQ: model.I(13),
		}},
		{model.F(10), 1, map[model.Op]model.Value{
			model.OpEQ: model.F(10), model.OpLE: model.F(10), model.OpGE: model.F(10),
			model.OpLT: model.F(9), model.OpGT: model.F(11), model.OpNEQ: model.F(11),
		}},
		{model.F(10), 0.25, map[model.Op]model.Value{
			model.OpLT: model.F(9.75), model.OpGT: model.F(10.25), model.OpNEQ: model.F(10.25),
		}},
		{model.S("abc"), 1, map[model.Op]model.Value{
			model.OpEQ: model.S("abc"), model.OpLE: model.S("abc"), model.OpGE: model.S("abc"),
			model.OpLT: none, model.OpGT: none, model.OpNEQ: model.S("abc'"),
		}},
		{model.S(" 2.5"), 1, map[model.Op]model.Value{
			model.OpEQ: model.S(" 2.5"), model.OpLT: model.F(1.5), model.OpGT: model.F(3.5), model.OpNEQ: model.S(" 2.5'"),
		}},
		{model.Null(), 1, map[model.Op]model.Value{
			model.OpEQ: model.Null(), model.OpLT: model.F(-1), model.OpGT: model.F(1), model.OpNEQ: model.F(1),
		}},
	}
	for _, tc := range cases {
		for op, want := range tc.want {
			got, ok := valueSatisfying(op, tc.target, tc.eps)
			if want == none {
				if ok {
					t.Errorf("%v %v (eps %v): got %#v, want no candidate", op, tc.target, tc.eps, got)
				}
				continue
			}
			if !ok || got != want {
				t.Errorf("%v %v (eps %v) = %#v, %v; want %#v", op, tc.target, tc.eps, got, ok, want)
			}
		}
	}
}
