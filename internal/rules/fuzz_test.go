package rules

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"bigdansing/internal/core"
	"bigdansing/internal/datagen"
	"bigdansing/internal/model"
)

// FuzzParseDC feeds arbitrary rule text through ParseDC and, when it parses,
// compiles it against the Tax schema. Neither step may panic on any input: a
// DC spec arrives from the command line and from the service's create body.
func FuzzParseDC(f *testing.F) {
	for _, spec := range []string{
		"t1.salary > t2.salary & t1.rate < t2.rate",
		"t1.zipcode = t2.zipcode & t1.city != t2.city",
		"t1.state = 'NY' & t1.salary < 1000.5",
		"t1.rate >= t1.salary",
		"t2.city <> \"x\" & & t1.zipcode == -3",
		"t3.salary > t2.salary",
		"t1.nosuch < t2.rate",
	} {
		f.Add(spec)
	}
	schema := datagen.TaxSchema()
	f.Fuzz(func(t *testing.T, spec string) {
		dc, err := ParseDC("fz", spec)
		if err != nil {
			return
		}
		_ = dc.String()
		_, _ = dc.Compile(schema)
	})
}

// FuzzParseFD feeds arbitrary rule text through ParseFD and, when it parses,
// renders it and compiles it against the Tax schema. No step may panic.
func FuzzParseFD(f *testing.F) {
	for _, spec := range []string{
		"zipcode -> city",
		"zipcode, state -> city, rate",
		"zipcode -> zipcode",
		" , -> city",
		"nosuch -> city",
		"a -> b -> c",
	} {
		f.Add(spec)
	}
	schema := datagen.TaxSchema()
	f.Fuzz(func(t *testing.T, spec string) {
		fd, err := ParseFD("fz", spec)
		if err != nil {
			return
		}
		_ = fd.String()
		_, _ = fd.Compile(schema)
	})
}

// FuzzParseCFD feeds arbitrary rule text through ParseCFD and, when it
// parses, compiles it against the Tax schema. Neither step may panic.
func FuzzParseCFD(f *testing.F) {
	for _, spec := range []string{
		"zipcode -> city | 90210 => LA ; _ => _",
		"zipcode, state -> city | _, CA => _ ; 10011, NY => NY",
		"zipcode -> city | ; ;",
		"zipcode -> city | 1, 2 => 3",
		"zipcode -> city | => ",
		"nosuch -> city | _ => _",
	} {
		f.Add(spec)
	}
	schema := datagen.TaxSchema()
	f.Fuzz(func(t *testing.T, spec string) {
		cfd, err := ParseCFD("fz", spec)
		if err != nil {
			return
		}
		_, _ = cfd.Compile(schema)
	})
}

// fuzzCell decodes one byte into a block cell from a small domain dense in
// the corners of Equal: NULL, ints, floats, -0, NaN, numeric strings and
// ints past a float's precision (I(2^53+1) is Equal to F(2^53), which is
// Equal to I(2^53)), two bits of value each, so cells collide often.
func fuzzCell(b byte) model.Value {
	v := int64(b & 3)
	switch (b >> 2) % 8 {
	case 0:
		return model.Null()
	case 1:
		return model.I(v)
	case 2:
		return model.F(float64(v))
	case 3:
		switch v {
		case 0:
			return model.F(math.Copysign(0, -1))
		case 1:
			return model.F(math.NaN())
		}
		return model.F(float64(v))
	case 4:
		return model.S(strconv.FormatInt(v, 10))
	case 6:
		if v < 2 {
			return model.I(1<<53 + v)
		}
		return model.F(1 << 53)
	default:
		return model.S("c" + strconv.FormatInt(v, 10))
	}
}

// FuzzFDBlockKernel decodes bytes into one block and checks the FD kernel
// against the per-pair Detect in both orders. The first byte picks the rule
// — a one- or two-column LHS, a one- or two-column RHS — and the rest are
// the members' cells: the RHS cells, plus the LHS cells for a two-column
// LHS (whose composite key can collide, so its members may differ there).
// A one-column LHS is the block key, so its members share the second byte.
// The kernel must find the reference's violations in order and report at
// least the pairs that violate and at most every pair. The checked-in
// corpus seeds NaN, -0, cross-kind, single-dissenter and composite blocks.
func FuzzFDBlockKernel(f *testing.F) {
	var rules [4]*core.Rule
	for i, spec := range []string{"k1 -> r1", "k1 -> r1, r2", "k1, k2 -> r1", "k1, k2 -> r1, r2"} {
		rules[i] = compileFD(f, spec)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		shape, key := data[0]&3, fuzzCell(data[1])
		composite, rhs := shape >= 2, 1+int(shape&1)
		width := rhs
		if composite {
			width += 2
		}
		var us []model.Tuple
		for rest := data[2:]; len(rest) >= width && len(us) < 32; rest = rest[width:] {
			tp := model.NewTuple(int64(len(us)), key, model.S("k"), model.Null(), model.Null())
			if composite {
				tp.Cells[0], tp.Cells[1] = fuzzCell(rest[rhs]), fuzzCell(rest[rhs+1])
			}
			for y := 0; y < rhs; y++ {
				tp.Cells[2+y] = fuzzCell(rest[y])
			}
			us = append(us, tp)
		}
		for _, ordered := range []bool{false, true} {
			checkKernel(t, rules[shape], us, ordered, false)
		}
	})
}

// FuzzCompileSpecs decodes a rule list — one spec per line, its id, kind
// and text separated by tabs — and compiles it against the Tax schema, the
// path every service create body and CLI rule flag takes. It must not
// panic. A failure compiles nothing; a success yields at least one valid
// rule per spec, each with an ID.
func FuzzCompileSpecs(f *testing.F) {
	for _, list := range []string{
		"phi1\tfd\tzipcode -> city\nphi2\tdc\tt1.salary > t2.salary & t1.rate < t2.rate",
		"\tfd\tzipcode -> state\n\tcfd\tzipcode -> city | 90210 => LA ; _ => _",
		"x\tsql\tselect 1",
		"a\tfd\t\nb\tdc\tt1.nosuch < t2.rate",
		"\t\t\n\n\tcfd\tzipcode, state -> city | _, CA => _",
	} {
		f.Add(list)
	}
	schema := datagen.TaxSchema()
	f.Fuzz(func(t *testing.T, list string) {
		var specs []Spec
		for _, line := range strings.Split(list, "\n") {
			fields := strings.SplitN(line, "\t", 3)
			for len(fields) < 3 {
				fields = append(fields, "")
			}
			specs = append(specs, Spec{ID: fields[0], Kind: fields[1], Spec: fields[2]})
		}
		rules, err := CompileSpecs(schema, specs)
		if err != nil {
			if rules != nil {
				t.Fatalf("failed compile returned %d rules", len(rules))
			}
			return
		}
		if len(rules) < len(specs) {
			t.Fatalf("%d specs compiled to %d rules", len(specs), len(rules))
		}
		for _, r := range rules {
			if r == nil || r.ID == "" {
				t.Fatalf("compiled rule without an ID: %+v", r)
			}
			if err := r.Validate(); err != nil {
				t.Fatalf("compiled rule %s does not validate: %v", r.ID, err)
			}
		}
	})
}
