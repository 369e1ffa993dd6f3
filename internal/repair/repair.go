// Package repair implements BigDansing's repair side (Section 5): the
// violation hypergraph, the parallel black-box wrapper that runs any
// centralized repair algorithm per connected component (Section 5.1,
// including the k-way split with the master/slave reconciliation protocol
// for components that exceed one worker's capacity), the equivalence-class
// algorithm [5] in both centralized and natively distributed
// (two map-reduce sequences, Section 5.2) forms, and a hypergraph-based
// greedy repair for denial constraints [6].
package repair

import (
	"fmt"
	"strconv"

	"bigdansing/internal/engine"
	"bigdansing/internal/model"
)

// Assignment is one chosen update: set cell (TupleID, Col) to Value.
type Assignment struct {
	TupleID int64
	Col     int
	Value   model.Value
}

// CellKey identifies the assigned cell as a comparable key — the form the
// hot paths (Apply, dedupe, freezing) group on.
func (a Assignment) CellKey() model.CellKey {
	return model.CellKey{TupleID: a.TupleID, Col: a.Col}
}

// Key renders the assigned cell's identity for diagnostics and logs.
func (a Assignment) Key() string {
	return strconv.FormatInt(a.TupleID, 10) + "#" + strconv.Itoa(a.Col)
}

// String renders the assignment.
func (a Assignment) String() string {
	return fmt.Sprintf("t%d[%d] := %s", a.TupleID, a.Col, a.Value)
}

// Algorithm is a (centralized) repair algorithm: given the fix sets of one
// connected component, choose the updates that resolve them. BigDansing
// treats implementations as black boxes (Section 5.1); users can plug in
// their own.
type Algorithm interface {
	// Name identifies the algorithm in reports.
	Name() string
	// Repair chooses updates for one component's violations.
	Repair(component []model.FixSet) ([]Assignment, error)
}

// Fitter is implemented by algorithms that learn from the data before
// repairing (the probabilistic backend fits factor weights on the clean
// portion of the relation). The cleansing loop calls Fit once per flush,
// on the first detect-repair round, with the full relation and the
// actionable fix sets; obs (which may be nil) receives the learning spans.
type Fitter interface {
	Fit(rel *model.Relation, fixSets []model.FixSet, obs engine.Observer) error
}

// Cloner is implemented by algorithms that carry per-session mutable state
// (learned weights, caches). Sessions clone the configured algorithm so
// concurrent sessions sharing one Cleaner never share that state.
type Cloner interface {
	CloneAlgorithm() Algorithm
}

// SpanAlgorithm is implemented by algorithms that report Observer spans of
// their own (compilation, inference). Callers that run components
// concurrently — RepairParallel's instances — use it to hand the explicit
// parent span the tracer's concurrency contract requires; serial callers
// pass their enclosing span (or nil for scoped nesting).
type SpanAlgorithm interface {
	Algorithm
	RepairSpanned(component []model.FixSet, obs engine.Observer, parent engine.Span) ([]Assignment, error)
}

// Algorithm codes for the enum-keyed AttrAlgorithm span attribute, so
// -explain and trace exports can tell which algorithm a repair span ran.
const (
	AlgoUnknown int64 = iota
	AlgoEquivalenceClass
	AlgoHypergraph
	_ // 3 is retired: exported traces keep every other code
	AlgoDistributedEq
	AlgoProb
)

// AlgorithmCode maps an algorithm's Name to its span-attribute code
// (AlgoUnknown for user-supplied algorithms).
func AlgorithmCode(name string) int64 {
	switch name {
	case "equivalence-class":
		return AlgoEquivalenceClass
	case "hypergraph":
		return AlgoHypergraph
	case "equivalence-class-mr":
		return AlgoDistributedEq
	case "prob":
		return AlgoProb
	}
	return AlgoUnknown
}

// Apply materializes assignments into the relation, skipping cells in
// frozen (the termination device of Section 2.2). It returns the number of
// cells actually changed.
func Apply(rel *model.Relation, assignments []Assignment, frozen map[model.CellKey]bool) int {
	return ApplyIndexed(rel, rel.ByID(), assignments, frozen)
}

// ApplyIndexed is Apply over the caller's live tuple ID → position index of
// rel, so a long-lived caller (a cleanse.Session) pays per assignment, not
// per relation.
func ApplyIndexed(rel *model.Relation, idx map[int64]int, assignments []Assignment, frozen map[model.CellKey]bool) int {
	changed := 0
	for _, a := range assignments {
		if frozen != nil && frozen[a.CellKey()] {
			continue
		}
		if rel.Apply(idx, a.TupleID, a.Col, a.Value) {
			changed++
		}
	}
	return changed
}

// dedupeAssignments keeps the first assignment per cell.
func dedupeAssignments(as []Assignment) []Assignment {
	seen := make(map[model.CellKey]bool, len(as))
	out := as[:0]
	for _, a := range as {
		k := a.CellKey()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, a)
	}
	return out
}
