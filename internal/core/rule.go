package core

import (
	"fmt"

	"bigdansing/internal/join"
)

// Rule is the UDF-based specification of one data quality rule over a
// single dataset: the five logical operators plus the optimization hints a
// declarative front end (package rules) can derive. Only Detect is
// mandatory; the planner fills in defaults for the rest (Section 3.2).
//
// Multi-dataset and bushy flows are expressed through the Job API instead.
type Rule struct {
	// ID names the rule; it is stamped on every violation it produces.
	ID string

	// Scope filters/projects units. Nil passes everything through.
	Scope ScopeFunc
	// Block groups units; violations only arise within a block. Nil means
	// no grouping (the whole dataset is one block).
	Block BlockFunc
	// BlockRight, when set together with Block, turns blocking into a
	// CoBlock: the dataset is keyed twice (for example customer name vs
	// supplier name in the DC of rule (1)) and candidates pair a
	// left-keyed unit with a right-keyed unit sharing the key.
	BlockRight BlockFunc
	// Iterate enumerates candidates from a block. Nil lets the planner
	// choose (unique pairs, ordered pairs, cross pairs, or OCJoin).
	Iterate IterateFunc
	// Detect decides violations. Required.
	Detect DetectFunc
	// DetectBlock optionally runs Detect over a whole block (see
	// BlockDetectFunc). The executor uses it whenever the pipeline groups on
	// Block, on every backend and source format; with a CoBlock or a custom
	// Iterate it calls Detect per candidate.
	DetectBlock BlockDetectFunc
	// GenFix proposes fixes. Nil means detection-only (violations are
	// reported but carry no repair candidates).
	GenFix GenFixFunc

	// Symmetric declares Detect order-insensitive: Detect(a,b) and
	// Detect(b,a) find the same violations, enabling the UCrossProduct /
	// unique-pairs enhancers (Section 4.2).
	Symmetric bool
	// OrderConds, when non-empty and Block is nil, declares that candidate
	// pairs are exactly the pairs satisfying this conjunction of ordering
	// comparisons, enabling the OCJoin enhancer (Section 4.3). The
	// conditions refer to columns of the scoped tuples.
	OrderConds []join.Cond
	// Unary declares a single-tuple rule: Detect examines one unit at a
	// time and no pairing is needed.
	Unary bool

	// Reads declares the columns of a (scoped) unit the rule reads: every
	// column Block, BlockRight, Iterate, OrderConds, Detect,
	// DetectBlock and GenFix look at. Nil means any column. It is the
	// paper's Scope projection (Section 3.1, Listing 1) as the executor
	// honours it: a tuple that moves — through the disk or TCP exchange, or
	// a spill under a memory budget — is encoded with its ID, a width of the
	// highest declared column + 1, its declared cells and a null in every
	// other column, so it travels with only what the rule reads. Cells keep
	// their base-table column indexes and values, so violations, fixes and
	// everything after them are the same as with the whole tuple. Records
	// that stay where they lie, on the in-memory path, are not touched. The
	// declarative front ends (package rules) derive it; a rule whose
	// operators read an undeclared column finds nulls there once its tuples
	// move.
	Reads []int
}

// Validate checks the rule is executable.
func (r *Rule) Validate() error {
	if r.ID == "" {
		return fmt.Errorf("core: rule has no ID")
	}
	if r.Detect == nil {
		return fmt.Errorf("core: rule %s has no Detect operator", r.ID)
	}
	if len(r.OrderConds) > 0 {
		for _, c := range r.OrderConds {
			if !c.Op.IsOrdering() {
				return fmt.Errorf("core: rule %s order condition %s is not an ordering comparison", r.ID, c)
			}
		}
		if r.Block != nil {
			return fmt.Errorf("core: rule %s sets both Block and OrderConds; OCJoin replaces blocking", r.ID)
		}
		if r.Unary {
			return fmt.Errorf("core: rule %s cannot be unary and have order conditions", r.ID)
		}
	}
	if r.BlockRight != nil && r.Block == nil {
		return fmt.Errorf("core: rule %s sets BlockRight without Block", r.ID)
	}
	for _, c := range r.Reads {
		if c < 0 {
			return fmt.Errorf("core: rule %s declares it reads column %d", r.ID, c)
		}
	}
	return nil
}
