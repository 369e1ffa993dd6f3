package core

import "fmt"

// Planner is the physical planner of Section 4.2: it consolidates a logical
// plan (Algorithm 1) and translates each pipeline into physical operators
// by the rule's shape — PMap for a unary rule, PIterate for a user Iterate,
// OCJoin for ordering conditions, CoBlock for two keyed branches,
// UCrossProduct for a symmetric rule and CrossProduct otherwise.
//
// A Planner holds no state and is safe for concurrent use.
type Planner struct{}

// NewPlanner builds a Planner.
func NewPlanner() *Planner { return &Planner{} }

// Plan consolidates the logical plan and translates each pipeline into
// physical operators by its shape.
func (pl *Planner) Plan(lp *LogicalPlan) (*PhysicalPlan, error) {
	lp = Consolidate(lp)
	pp := &PhysicalPlan{Name: lp.Name, Logical: lp, SharedScans: lp.SharedScans}
	for _, p := range lp.Pipelines {
		impl, err := iterImpl(p)
		if err != nil {
			return nil, err
		}
		pp.Pipelines = append(pp.Pipelines, PhysicalPipeline{Pipeline: p, Impl: impl, Ops: renderOps(p, impl)})
	}
	return pp, nil
}

// iterImpl picks the Iterate implementation of one pipeline from its shape.
func iterImpl(p Pipeline) (IterImpl, error) {
	switch {
	case p.Unary:
		return IterSingles, nil
	case p.Iterate != nil:
		return IterCustom, nil
	case len(p.OrderConds) > 0:
		return IterOCJoin, nil
	case len(p.Branches) > 1:
		for _, b := range p.Branches {
			if b.Block == nil {
				return 0, fmt.Errorf("core: pipeline %s: CoBlock branches must all have Block operators", p.RuleID)
			}
		}
		return IterCoBlockPairs, nil
	case p.Symmetric:
		return IterUniquePairs, nil
	default:
		return IterOrderedPairs, nil
	}
}

// renderOps builds the EXPLAIN operator sequence of one pipeline, naming
// the partitioning each implementation runs (OCJoin's RangePartition,
// CoBlock's Co-Block, a keyed branch's PBlock).
func renderOps(p Pipeline, impl IterImpl) []string {
	var ops []string
	for _, b := range p.Branches {
		if len(b.Scopes) > 0 {
			ops = append(ops, "PScope")
		}
	}
	switch impl {
	case IterSingles:
	case IterCustom:
		if len(p.Branches) > 1 {
			ops = append(ops, "Co-Block")
		} else if p.Branches[0].Block != nil {
			ops = append(ops, "PBlock")
		}
	case IterOCJoin:
		ops = append(ops, "RangePartition")
	case IterCoBlockPairs:
		ops = append(ops, "Co-Block")
	default:
		if p.Branches[0].Block != nil {
			ops = append(ops, "PBlock")
		}
	}
	ops = append(ops, impl.String(), "PDetect")
	if p.GenFix != nil {
		ops = append(ops, "PGenFix")
	}
	return ops
}
