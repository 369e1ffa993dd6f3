package rules

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"bigdansing/internal/core"
	"bigdansing/internal/model"
)

// readsKinds are the column kinds the declaration property draws schemas
// from.
var readsKinds = []string{"", ":int", ":float"}

// readsValue draws a cell of a column of kind k from a small domain, so
// blocks collide and predicates go both ways, with NULLs, empty strings,
// NaN and -0 among them.
func readsValue(rng *rand.Rand, k string) model.Value {
	if rng.Intn(8) == 0 {
		return model.Null()
	}
	switch k {
	case ":int":
		return model.I(int64(rng.Intn(4)))
	case ":float":
		return []model.Value{model.F(0.5), model.F(1.5), model.F(math.Copysign(0, -1)), model.F(math.NaN())}[rng.Intn(4)]
	default:
		return model.S([]string{"a", "b", "c", ""}[rng.Intn(4)])
	}
}

// readsCase is a random schema, a relation over it and the compiled FD, CFD
// and DC rules of random specs over it.
func readsCase(t *testing.T, rng *rand.Rand) (*model.Schema, []string, []model.Tuple, []*core.Rule) {
	t.Helper()
	width := 3 + rng.Intn(5)
	kinds, cols := make([]string, width), make([]string, width)
	for c := range cols {
		kinds[c] = readsKinds[rng.Intn(len(readsKinds))]
		cols[c] = fmt.Sprintf("a%d%s", c, kinds[c])
	}
	schema := model.MustParseSchema(strings.Join(cols, ","))
	name := func(c int) string { return schema.Name(c) }
	tuples := make([]model.Tuple, 6+rng.Intn(14))
	for i := range tuples {
		cells := make([]model.Value, width)
		for c := range cells {
			cells[c] = readsValue(rng, kinds[c])
		}
		tuples[i] = model.NewTuple(int64(i), cells...)
	}
	pick := func(n int) []string {
		var out []string
		for _, c := range rng.Perm(width)[:n] {
			out = append(out, name(c))
		}
		return out
	}

	var rs []*core.Rule
	attrs := pick(2 + rng.Intn(2))
	fd := &FD{ID: "fd", LHS: attrs[:1+rng.Intn(len(attrs)-1)]}
	fd.RHS = attrs[len(fd.LHS):]
	r, err := fd.Compile(schema)
	if err != nil {
		t.Fatal(err)
	}
	rs = append(rs, r)

	attrs = pick(2 + rng.Intn(2))
	cfd := &CFD{ID: "cfd", LHS: attrs[:1+rng.Intn(len(attrs)-1)]}
	cfd.RHS = attrs[len(cfd.LHS):]
	for row := 0; row < 1+rng.Intn(3); row++ {
		var pr PatternRow
		for range cfd.LHS {
			pr.LHS = append(pr.LHS, []string{Wildcard, "a", "1", "0.5"}[rng.Intn(4)])
		}
		for range cfd.RHS {
			pr.RHS = append(pr.RHS, []string{Wildcard, Wildcard, "b", "2"}[rng.Intn(4)])
		}
		cfd.Tableau = append(cfd.Tableau, pr)
	}
	crs, err := cfd.Compile(schema)
	if err != nil {
		t.Fatal(err)
	}
	rs = append(rs, crs...)

	ops := []model.Op{model.OpEQ, model.OpNEQ, model.OpLT, model.OpGT, model.OpLE, model.OpGE}
	dc := &DC{ID: "dc"}
	unary := rng.Intn(4) == 0
	for p := 0; p < 1+rng.Intn(3); p++ {
		c := rng.Intn(width)
		pred := Pred{LeftTuple: 1, LeftAttr: name(c), Op: ops[rng.Intn(len(ops))]}
		switch {
		case unary || rng.Intn(4) == 0:
			pred.RightIsConst, pred.Const = true, readsValue(rng, kinds[c])
		default:
			pred.RightTuple, pred.RightAttr = 2, name(rng.Intn(width))
		}
		dc.Preds = append(dc.Preds, pred)
	}
	r, err = dc.Compile(schema)
	if err != nil {
		t.Fatal(err)
	}
	rs = append(rs, r)
	return schema, cols, tuples, rs
}

// outside rewrites every cell of ts outside the declared columns: nulled,
// or scrambled to a random value of a random kind.
func outside(rng *rand.Rand, ts []model.Tuple, reads []int, scramble bool) []model.Tuple {
	out := make([]model.Tuple, len(ts))
	for i, t := range ts {
		cells := slices.Clone(t.Cells)
		for c := range cells {
			if slices.Contains(reads, c) {
				continue
			}
			cells[c] = model.Null()
			if scramble {
				cells[c] = readsValue(rng, readsKinds[rng.Intn(len(readsKinds))])
			}
		}
		out[i] = model.NewTuple(t.ID, cells...)
	}
	return out
}

// readsOutput renders, byte for byte, everything a rule's operators make of
// a relation: the keys Block and BlockRight give each tuple, the
// violations Detect finds on every unit (unary) or ordered pair, the
// violations DetectBlock finds on every block in both orders, and the fixes
// GenFix proposes for each of those violations, cell values included.
func readsOutput(r *core.Rule, ts []model.Tuple) string {
	var b strings.Builder
	var out core.Output
	for _, t := range ts {
		if r.Block != nil {
			fmt.Fprintf(&b, "block %#v\n", r.Block(t).MapKey())
		}
		if r.BlockRight != nil {
			fmt.Fprintf(&b, "right %#v\n", r.BlockRight(t).MapKey())
		}
	}
	if r.Unary {
		for _, t := range ts {
			r.Detect(core.Single(t), &out)
		}
	} else {
		for _, l := range ts {
			for _, rt := range ts {
				if l.ID != rt.ID {
					r.Detect(core.PairItem(l, rt), &out)
				}
			}
		}
	}
	if r.DetectBlock != nil {
		blocks := map[model.ValueKey][]model.Tuple{}
		var keys []model.ValueKey
		for _, t := range ts {
			k := r.Block(t).MapKey()
			if _, ok := blocks[k]; !ok {
				keys = append(keys, k)
			}
			blocks[k] = append(blocks[k], t)
		}
		for _, k := range keys {
			for _, ordered := range []bool{false, true} {
				pairs := r.DetectBlock(blocks[k], ordered, &out)
				fmt.Fprintf(&b, "kernel %d pairs\n", pairs)
			}
		}
	}
	for _, v := range out.Violations() {
		fmt.Fprintf(&b, "violation %#v\n", v)
		if r.GenFix != nil {
			fmt.Fprintf(&b, "fixes %#v\n", r.GenFix(nil, v))
		}
	}
	return b.String()
}

// TestDeclaredReadsAreSound checks the FD, CFD and DC front ends' Reads
// over random schemas, relations and specs: with every cell outside the
// declaration nulled, or scrambled, every operator of the rule must give
// byte-identical output, cell values included. That is what lets a moved
// tuple carry only its declared columns. The OCJoin conditions must lie in
// the declaration too.
func TestDeclaredReadsAreSound(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	violations := 0
	for i := 0; i < 300; i++ {
		_, cols, ts, rs := readsCase(t, rng)
		for _, r := range rs {
			if r.Reads == nil {
				t.Fatalf("case %d (%s): rule %s declares no reads", i, strings.Join(cols, ","), r.ID)
			}
			for _, c := range r.OrderConds {
				if !slices.Contains(r.Reads, c.LeftCol) || !slices.Contains(r.Reads, c.RightCol) {
					t.Fatalf("case %d: rule %s orders on %s outside its reads %v", i, r.ID, c, r.Reads)
				}
			}
			want := readsOutput(r, ts)
			violations += strings.Count(want, "violation ")
			for _, scramble := range []bool{false, true} {
				if got := readsOutput(r, outside(rng, ts, r.Reads, scramble)); got != want {
					t.Fatalf("case %d (%s): rule %s with reads %v, cells outside them rewritten (scrambled %v), changes its output:\n got  %s\n want %s",
						i, strings.Join(cols, ","), r.ID, r.Reads, scramble, got, want)
				}
			}
		}
	}
	if violations == 0 {
		t.Fatal("no case found a violation; the property proves nothing")
	}
}
