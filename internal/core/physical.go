package core

import (
	"fmt"
	"strings"
)

// IterImpl enumerates the physical implementations the optimizer can pick
// for the Iterate stage (Section 4.2's wrappers and enhancers).
type IterImpl uint8

const (
	// IterCustom wraps a user-provided Iterate (a wrapper, no enhancer).
	IterCustom IterImpl = iota
	// IterUniquePairs enumerates unique unordered pairs per block —
	// the UCrossProduct enhancer, valid for symmetric rules.
	IterUniquePairs
	// IterOrderedPairs enumerates all ordered pairs per block — the plain
	// CrossProduct wrapper for asymmetric rules.
	IterOrderedPairs
	// IterCoBlockPairs pairs units across the bags of two co-grouped
	// streams — the CoBlock enhancer (Figure 6).
	IterCoBlockPairs
	// IterOCJoin produces exactly the pairs satisfying the rule's ordering
	// comparisons — the OCJoin enhancer (Section 4.3).
	IterOCJoin
	// IterSingles feeds each unit on its own — unary rules.
	IterSingles
)

// String names the implementation as the paper's physical operators.
func (i IterImpl) String() string {
	switch i {
	case IterCustom:
		return "PIterate"
	case IterUniquePairs:
		return "UCrossProduct"
	case IterOrderedPairs:
		return "CrossProduct"
	case IterCoBlockPairs:
		return "CoBlock"
	case IterOCJoin:
		return "OCJoin"
	case IterSingles:
		return "PMap"
	default:
		return "Iter?"
	}
}

// PhysicalPipeline is a pipeline plus the planner's physical choices.
type PhysicalPipeline struct {
	Pipeline
	Impl IterImpl
	// Ops lists the physical operator sequence for EXPLAIN-style output.
	Ops []string
}

// PhysicalPlan is the optimized executable plan.
type PhysicalPlan struct {
	Name        string
	Logical     *LogicalPlan
	Pipelines   []PhysicalPipeline
	SharedScans int
}

// Explain renders the physical plan: one operator-sequence line per
// pipeline.
func (pp *PhysicalPlan) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan %s (shared scans: %d)\n", pp.Name, pp.SharedScans)
	for _, p := range pp.Pipelines {
		fmt.Fprintf(&b, "  %s: %s\n", p.RuleID, strings.Join(p.Ops, " -> "))
	}
	return b.String()
}
