package model

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Cell addresses one element of a data unit: attribute Col of tuple TupleID.
// Value carries the element's value at detection time so repair algorithms
// can reason about violations without re-reading the dataset. A cell holds
// no attribute name: renderers take it from the relation's schema. Cells are
// immutable once detected — fixes share them (see Fix) — so code that needs
// a different value builds a new cell.
type Cell struct {
	TupleID int64
	Col     int
	Value   Value
}

// NewCell builds a cell reference.
func NewCell(tupleID int64, col int, v Value) Cell {
	return Cell{TupleID: tupleID, Col: col, Value: v}
}

// CellKey is the comparable identity of a cell position: attribute Col of
// tuple TupleID, ignoring the captured value. It is the map key every hot
// repair path groups on; the string Key survives only for diagnostics.
type CellKey struct {
	TupleID int64
	Col     int
}

// Less orders cell keys by (TupleID, Col), the canonical order violation
// identities and hyperedge node lists use.
func (k CellKey) Less(o CellKey) bool {
	if k.TupleID != o.TupleID {
		return k.TupleID < o.TupleID
	}
	return k.Col < o.Col
}

// Compare returns -1/0/1 ordering cell keys by (TupleID, Col).
func (k CellKey) Compare(o CellKey) int {
	switch {
	case k.TupleID < o.TupleID:
		return -1
	case k.TupleID > o.TupleID:
		return 1
	case k.Col < o.Col:
		return -1
	case k.Col > o.Col:
		return 1
	default:
		return 0
	}
}

// MapKey returns the comparable position identity of the cell.
func (c Cell) MapKey() CellKey { return CellKey{TupleID: c.TupleID, Col: c.Col} }

// Hash returns a cheap 64-bit hash of the cell position for partitioning.
func (c Cell) Hash() uint64 { return c.MapKey().Hash() }

// Hash returns a cheap 64-bit hash of the cell key.
func (k CellKey) Hash() uint64 {
	return mix64(mix64(uint64(k.TupleID)^0xa0761d6478bd642f) ^ uint64(uint32(k.Col)))
}

// Key identifies the cell position (ignoring the captured value) as a
// string, for diagnostics; two fixes touching the same Key touch the same
// element. Hot paths use MapKey instead.
func (c Cell) Key() string {
	buf := make([]byte, 0, 24)
	buf = strconv.AppendInt(buf, c.TupleID, 10)
	buf = append(buf, '#')
	buf = strconv.AppendInt(buf, int64(c.Col), 10)
	return string(buf)
}

// String renders the cell for diagnostics as t<id>[<col>]=<value>; reports
// name the column from the schema instead (see WriteViolationsCSV).
func (c Cell) String() string {
	return fmt.Sprintf("t%d[%d]=%s", c.TupleID, c.Col, c.Value)
}

// Violation is the output of Detect: the set of elements that together
// break a rule (Section 2.1).
type Violation struct {
	RuleID string
	Cells  []Cell
}

// NewViolation builds a violation for the given rule.
func NewViolation(ruleID string, cells ...Cell) Violation {
	return Violation{RuleID: ruleID, Cells: cells}
}

// TupleIDs returns the distinct tuple IDs involved, sorted.
func (v Violation) TupleIDs() []int64 {
	seen := make(map[int64]struct{}, len(v.Cells))
	for _, c := range v.Cells {
		seen[c.TupleID] = struct{}{}
	}
	ids := make([]int64, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// violationKeyInline is how many cell positions a ViolationKey carries
// inline; violations with more cells (rare — rules emit 1-2 cells) spill the
// rest into the Extra string.
const violationKeyInline = 4

// ViolationKey is the comparable canonical identity of a violation: the rule
// plus the sorted cell positions. The common 1-2 cell case fits the inline
// array and allocates nothing; cells beyond violationKeyInline are rendered
// into Extra, keeping identity exact (never hashed) at any arity.
type ViolationKey struct {
	RuleID string
	N      int
	Cells  [violationKeyInline]CellKey
	Extra  string
}

// MapKey returns the comparable canonical identity of the violation.
// Engines that may emit a violation twice (for example a SQL self-join
// emitting both (t1,t2) and (t2,t1)) dedupe on this key.
func (v Violation) MapKey() ViolationKey {
	k := ViolationKey{RuleID: v.RuleID, N: len(v.Cells)}
	if len(v.Cells) <= violationKeyInline {
		for i, c := range v.Cells {
			k.Cells[i] = c.MapKey()
		}
		// Insertion sort over at most four elements: canonical order without
		// touching the heap.
		for i := 1; i < len(v.Cells); i++ {
			for j := i; j > 0 && k.Cells[j].Less(k.Cells[j-1]); j-- {
				k.Cells[j], k.Cells[j-1] = k.Cells[j-1], k.Cells[j]
			}
		}
		return k
	}
	keys := make([]CellKey, len(v.Cells))
	for i, c := range v.Cells {
		keys[i] = c.MapKey()
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	copy(k.Cells[:], keys[:violationKeyInline])
	buf := make([]byte, 0, (len(keys)-violationKeyInline)*12)
	for _, ck := range keys[violationKeyInline:] {
		buf = strconv.AppendInt(buf, ck.TupleID, 10)
		buf = append(buf, '#')
		buf = strconv.AppendInt(buf, int64(ck.Col), 10)
		buf = append(buf, ',')
	}
	k.Extra = string(buf)
	return k
}

// Key returns the canonical violation identity as a string, for diagnostics
// and serialization; dedup hot paths use the comparable MapKey instead.
func (v Violation) Key() string {
	keys := make([]string, len(v.Cells))
	for i, c := range v.Cells {
		keys[i] = c.Key()
	}
	sort.Strings(keys)
	buf := make([]byte, 0, len(v.RuleID)+1+len(keys)*12)
	buf = append(buf, v.RuleID...)
	buf = append(buf, '|')
	for i, k := range keys {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, k...)
	}
	return string(buf)
}

// String renders the violation for diagnostics.
func (v Violation) String() string {
	parts := make([]string, len(v.Cells))
	for i, c := range v.Cells {
		parts[i] = c.String()
	}
	return fmt.Sprintf("violation[%s]{%s}", v.RuleID, strings.Join(parts, "; "))
}
