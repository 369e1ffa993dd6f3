package model

import (
	"testing"
	"unsafe"
)

func TestOpEval(t *testing.T) {
	cases := []struct {
		op   Op
		a, b Value
		want bool
	}{
		{OpEQ, I(1), I(1), true},
		{OpEQ, I(1), I(2), false},
		{OpNEQ, S("a"), S("b"), true},
		{OpLT, F(1.5), F(2), true},
		{OpGT, I(3), F(2.5), true},
		{OpLE, I(2), I(2), true},
		{OpGE, I(1), I(2), false},
	}
	for _, c := range cases {
		if got := c.op.Eval(c.a, c.b); got != c.want {
			t.Errorf("%v %v %v = %v, want %v", c.a, c.op, c.b, got, c.want)
		}
	}
}

func TestOpNegateIsInvolution(t *testing.T) {
	ops := []Op{OpEQ, OpNEQ, OpLT, OpGT, OpLE, OpGE}
	for _, op := range ops {
		if op.Negate().Negate() != op {
			t.Errorf("negate twice of %v != itself", op)
		}
	}
	// Negation inverts truth on every comparable pair.
	vals := []Value{I(1), I(2), I(3)}
	for _, op := range ops {
		for _, a := range vals {
			for _, b := range vals {
				if op.Eval(a, b) == op.Negate().Eval(a, b) {
					t.Errorf("%v and its negation agree on %v,%v", op, a, b)
				}
			}
		}
	}
}

func TestOpFlip(t *testing.T) {
	vals := []Value{I(1), I(2)}
	for _, op := range []Op{OpEQ, OpNEQ, OpLT, OpGT, OpLE, OpGE} {
		for _, a := range vals {
			for _, b := range vals {
				if op.Eval(a, b) != op.Flip().Eval(b, a) {
					t.Errorf("flip law fails for %v on %v,%v", op, a, b)
				}
			}
		}
	}
}

func TestParseOp(t *testing.T) {
	for s, want := range map[string]Op{"=": OpEQ, "==": OpEQ, "!=": OpNEQ, "<>": OpNEQ, "<": OpLT, ">": OpGT, "<=": OpLE, ">=": OpGE} {
		got, err := ParseOp(s)
		if err != nil || got != want {
			t.Errorf("ParseOp(%q) = %v,%v", s, got, err)
		}
	}
	if _, err := ParseOp("~"); err == nil {
		t.Error("bad op should error")
	}
}

func TestIsOrdering(t *testing.T) {
	if OpEQ.IsOrdering() || OpNEQ.IsOrdering() {
		t.Error("= and != are not ordering")
	}
	for _, op := range []Op{OpLT, OpGT, OpLE, OpGE} {
		if !op.IsOrdering() {
			t.Errorf("%v is ordering", op)
		}
	}
}

func TestViolationKeyOrderInvariant(t *testing.T) {
	c1 := NewCell(1, 0, S("x"))
	c2 := NewCell(2, 1, S("y"))
	v1 := NewViolation("r", c1, c2)
	v2 := NewViolation("r", c2, c1)
	if v1.Key() != v2.Key() {
		t.Error("violation key should be order invariant")
	}
	v3 := NewViolation("other", c1, c2)
	if v1.Key() == v3.Key() {
		t.Error("different rules should have different keys")
	}
}

func TestViolationTupleIDs(t *testing.T) {
	v := NewViolation("r",
		NewCell(5, 0, Null()),
		NewCell(2, 0, Null()),
		NewCell(5, 1, Null()))
	ids := v.TupleIDs()
	if len(ids) != 2 || ids[0] != 2 || ids[1] != 5 {
		t.Errorf("TupleIDs = %v", ids)
	}
}

func TestFixCells(t *testing.T) {
	l := NewCell(1, 0, S("x"))
	r := NewCell(2, 0, S("y"))
	cf := NewCellFix(l, OpEQ, r)
	if len(cf.Cells()) != 2 || cf.Left() != l || cf.RightCell() != r || cf.Const() != Null() {
		t.Errorf("cell fix = %v, cells %v", cf, cf.Cells())
	}
	kf := NewConstFix(l, OpNEQ, S("z"))
	if len(kf.Cells()) != 1 || kf.Left() != l || kf.RightCell() != (Cell{}) || kf.Const() != S("z") {
		t.Errorf("const fix = %v, cells %v", kf, kf.Cells())
	}
	if cap(kf.Cells()) != 1 {
		t.Error("a const fix's Cells must not expose the constant's slot")
	}
	if kf.String() == "" || cf.String() == "" {
		t.Error("String renders")
	}
}

// TestCellFixOfSharesTheWindow checks that a fix built on a violation's
// adjacent cells names them instead of copying them.
func TestCellFixOfSharesTheWindow(t *testing.T) {
	v := NewViolation("r", NewCell(1, 2, S("a")), NewCell(3, 2, S("b")), NewCell(1, 4, I(1)), NewCell(3, 4, I(2)))
	f := CellFixOf(v.Cells[2:4:4], OpLT)
	if &f.Cells()[0] != &v.Cells[2] || &f.Cells()[1] != &v.Cells[3] {
		t.Error("CellFixOf copied its window")
	}
	if f.Left() != v.Cells[2] || f.RightCell() != v.Cells[3] || f.Op != OpLT || !f.RightIsCell {
		t.Errorf("fix = %v", f)
	}
	if cap(f.Cells()) != 2 {
		t.Error("a fix's window must be capped, so an append cannot write the violation's next cell")
	}
	defer func() {
		if recover() == nil {
			t.Error("CellFixOf accepted a window of three cells")
		}
	}()
	CellFixOf(v.Cells[:3], OpEQ)
}

// TestRecordSizes pins the detect→repair records' layout on 64-bit
// platforms: a cell is its position plus its value, and a fix is its
// operator plus a window on its cells.
func TestRecordSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Cell{}); got != 56 {
		t.Errorf("Cell is %d bytes, want 56", got)
	}
	if got := unsafe.Sizeof(Fix{}); got != 32 {
		t.Errorf("Fix is %d bytes, want 32", got)
	}
}

func TestFixCellsAllocatesNothing(t *testing.T) {
	v := NewViolation("r", NewCell(1, 2, S("a")), NewCell(3, 2, S("b")))
	cf := CellFixOf(v.Cells, OpEQ)
	kf := NewConstFix(v.Cells[0], OpEQ, S("c"))
	n := 0
	if a := testing.AllocsPerRun(100, func() { n += len(cf.Cells()) + len(kf.Cells()) }); a != 0 {
		t.Errorf("Fix.Cells allocated %.1f times per call pair", a)
	}
}
