package model

import "fmt"

// Op is a comparison operator appearing in rule predicates and possible
// fixes. The paper's fix language is `x op y` with op in {=,≠,<,>,≤,≥}
// (Section 2.1).
type Op uint8

const (
	// OpEQ is equality (=).
	OpEQ Op = iota
	// OpNEQ is inequality (≠).
	OpNEQ
	// OpLT is less-than (<).
	OpLT
	// OpGT is greater-than (>).
	OpGT
	// OpLE is less-or-equal (≤).
	OpLE
	// OpGE is greater-or-equal (≥).
	OpGE
)

// String renders the operator in ASCII.
func (o Op) String() string {
	switch o {
	case OpEQ:
		return "="
	case OpNEQ:
		return "!="
	case OpLT:
		return "<"
	case OpGT:
		return ">"
	case OpLE:
		return "<="
	case OpGE:
		return ">="
	default:
		return "?"
	}
}

// ParseOp parses an ASCII operator token.
func ParseOp(s string) (Op, error) {
	switch s {
	case "=", "==":
		return OpEQ, nil
	case "!=", "<>":
		return OpNEQ, nil
	case "<":
		return OpLT, nil
	case ">":
		return OpGT, nil
	case "<=":
		return OpLE, nil
	case ">=":
		return OpGE, nil
	default:
		return OpEQ, fmt.Errorf("model: unknown operator %q", s)
	}
}

// Negate returns the logical negation of the operator: the fix that resolves
// a violated predicate is the predicate's negation.
func (o Op) Negate() Op {
	switch o {
	case OpEQ:
		return OpNEQ
	case OpNEQ:
		return OpEQ
	case OpLT:
		return OpGE
	case OpGT:
		return OpLE
	case OpLE:
		return OpGT
	case OpGE:
		return OpLT
	default:
		return o
	}
}

// Flip returns the operator with its operands swapped: a op b iff b flip(op) a.
func (o Op) Flip() Op {
	switch o {
	case OpLT:
		return OpGT
	case OpGT:
		return OpLT
	case OpLE:
		return OpGE
	case OpGE:
		return OpLE
	default: // = and != are symmetric
		return o
	}
}

// Eval applies the operator to two values.
func (o Op) Eval(a, b Value) bool {
	c := Compare(a, b)
	switch o {
	case OpEQ:
		return c == 0
	case OpNEQ:
		return c != 0
	case OpLT:
		return c < 0
	case OpGT:
		return c > 0
	case OpLE:
		return c <= 0
	case OpGE:
		return c >= 0
	default:
		return false
	}
}

// IsOrdering reports whether the operator is an order comparison
// (<, >, <=, >=) — the class OCJoin accelerates.
func (o Op) IsOrdering() bool {
	return o == OpLT || o == OpGT || o == OpLE || o == OpGE
}

// Fix is one possible update that would help resolve a violation:
// Left op Right, where Right is either another cell or a constant
// (Section 2.1). GenFix emits fixes; repair algorithms choose among them.
//
// A fix names its cells instead of copying them. A cell fix is a two-cell
// window [left, right] — normally onto its violation's Cells, which rules
// lay out so that each fix's pair is adjacent (CellFixOf) — and copies
// nothing. A constant fix owns a two-cell slice whose second cell carries
// only the constant, in its Value. Cells are immutable once detected, so
// sharing them is safe; code that needs different values builds new cells
// and a new fix.
type Fix struct {
	Op Op
	// RightIsCell tells a cell fix (RightCell) from a constant fix (Const).
	RightIsCell bool
	cells       []Cell
}

// CellFixOf builds the fix cells[0] op cells[1] on a window of exactly two
// cells, sharing it: pass v.Cells[k:k+2:k+2] to relate a violation's
// adjacent cells without copying them.
func CellFixOf(cells []Cell, op Op) Fix {
	if len(cells) != 2 {
		panic("model: CellFixOf needs a window of exactly two cells")
	}
	return Fix{Op: op, RightIsCell: true, cells: cells[:2:2]}
}

// NewCellFix builds a fix relating two cells, e.g. t2[city] = t4[city],
// copying them into a window of its own. Rules whose two cells lie side by
// side in the violation use CellFixOf instead.
func NewCellFix(left Cell, op Op, right Cell) Fix {
	return CellFixOf([]Cell{left, right}, op)
}

// NewConstFix builds a fix against a constant, e.g. t2[zipcode] != 90210.
func NewConstFix(left Cell, op Op, c Value) Fix {
	return Fix{Op: op, cells: []Cell{left, {Value: c}}}
}

// Left returns the cell the fix constrains.
func (f Fix) Left() Cell { return f.cells[0] }

// RightCell returns the right operand of a cell fix (the zero cell for a
// constant fix).
func (f Fix) RightCell() Cell {
	if !f.RightIsCell {
		return Cell{}
	}
	return f.cells[1]
}

// Const returns the right operand of a constant fix (null for a cell fix).
func (f Fix) Const() Value {
	if f.RightIsCell {
		return Null()
	}
	return f.cells[1].Value
}

// Cells returns the cells the fix touches (one or two): the fix's own
// window, without allocating. Callers must not write through it.
func (f Fix) Cells() []Cell {
	if f.RightIsCell {
		return f.cells
	}
	return f.cells[:1:1]
}

// String renders the fix for diagnostics.
func (f Fix) String() string {
	if f.RightIsCell {
		return fmt.Sprintf("%s %s %s", f.Left(), f.Op, f.RightCell())
	}
	return fmt.Sprintf("%s %s %s", f.Left(), f.Op, f.Const())
}

// FixSet groups the possible fixes generated for one violation, keeping the
// provenance needed by the repair hypergraph.
type FixSet struct {
	Violation Violation
	Fixes     []Fix
}
