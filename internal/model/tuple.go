package model

import (
	"fmt"
	"strings"
)

// Tuple is the relational data unit. ID is a dataset-wide unique identifier
// assigned at parse time; repairs address cells as (tuple ID, attribute).
type Tuple struct {
	ID    int64
	Cells []Value
}

// NewTuple builds a tuple with the given id and cell values.
func NewTuple(id int64, cells ...Value) Tuple {
	return Tuple{ID: id, Cells: cells}
}

// Hash returns a cheap 64-bit content hash of the tuple (ID plus every cell
// value) for shuffle partitioning; it never materializes strings.
func (t Tuple) Hash() uint64 {
	h := mix64(uint64(t.ID) ^ 0xe7037ed1a0b428db)
	for _, c := range t.Cells {
		h = mix64(h ^ c.Hash())
	}
	return h
}

// Cell returns the i-th cell value; out-of-range indexes yield null, the
// same leniency the paper's UDF operators rely on.
func (t Tuple) Cell(i int) Value {
	if i < 0 || i >= len(t.Cells) {
		return Null()
	}
	return t.Cells[i]
}

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple {
	cells := make([]Value, len(t.Cells))
	copy(cells, t.Cells)
	return Tuple{ID: t.ID, Cells: cells}
}

// String renders the tuple for diagnostics.
func (t Tuple) String() string {
	parts := make([]string, len(t.Cells))
	for i, c := range t.Cells {
		parts[i] = c.String()
	}
	return fmt.Sprintf("t%d(%s)", t.ID, strings.Join(parts, ", "))
}

// Relation couples a schema with its tuples. It is the in-memory dataset
// handed to jobs and returned by parsers and generators.
type Relation struct {
	Name   string
	Schema *Schema
	Tuples []Tuple
}

// NewRelation builds an empty relation.
func NewRelation(name string, schema *Schema) *Relation {
	return &Relation{Name: name, Schema: schema}
}

// Append adds tuples to the relation.
func (r *Relation) Append(ts ...Tuple) { r.Tuples = append(r.Tuples, ts...) }

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.Tuples) }

// Clone deep-copies the relation (schema is shared: schemas are immutable).
// All cells are copied into one slab; each tuple's Cells is capped at its
// own length, so an append to one tuple's cells never writes into the next.
func (r *Relation) Clone() *Relation {
	n := 0
	for _, t := range r.Tuples {
		n += len(t.Cells)
	}
	slab := make([]Value, 0, n)
	out := &Relation{Name: r.Name, Schema: r.Schema, Tuples: make([]Tuple, len(r.Tuples))}
	for i, t := range r.Tuples {
		lo := len(slab)
		slab = append(slab, t.Cells...)
		out.Tuples[i] = Tuple{ID: t.ID, Cells: slab[lo:len(slab):len(slab)]}
	}
	return out
}

// ByID builds an index from tuple ID to position in Tuples.
func (r *Relation) ByID() map[int64]int {
	idx := make(map[int64]int, len(r.Tuples))
	for i, t := range r.Tuples {
		idx[t.ID] = i
	}
	return idx
}

// Apply destructively sets the cell (tupleID, col) to v, returning false if
// the tuple ID is unknown. It is the primitive the repair loop uses when
// materializing chosen fixes.
func (r *Relation) Apply(idx map[int64]int, tupleID int64, col int, v Value) bool {
	i, ok := idx[tupleID]
	if !ok || col < 0 || col >= len(r.Tuples[i].Cells) {
		return false
	}
	r.Tuples[i].Cells[col] = v
	return true
}
