package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
)

// Planner is the public planning API: it consolidates a logical plan
// (Algorithm 1), enumerates the legal physical alternatives of every
// pipeline (Section 4.2's wrappers and enhancers plus the broadcast and
// alternate-key variants), prices each with its CostModel, and picks the
// cheapest. The zero-configuration planner (NewPlanner()) uses StaticCost
// and makes the rule-shape choices (see StaticCost); NewPlanner with
// WithCostModel(NewCostModel()) plans from sampled statistics and
// Observer feedback.
//
// A Planner is safe for concurrent use.
type Planner struct {
	model       CostModel
	stats       map[string]TableStats
	src         FeedbackSource
	budget      int64
	parallelism int

	mu      sync.Mutex
	history []string
}

// PlannerOption configures a Planner.
type PlannerOption func(*Planner)

// WithCostModel installs the cost model (default StaticCost).
func WithCostModel(m CostModel) PlannerOption {
	return func(p *Planner) {
		if m != nil {
			p.model = m
		}
	}
}

// WithTableStats installs precomputed statistics keyed by branch label,
// overriding the sampling pass for those labels (tests and external stats
// stores use this).
func WithTableStats(stats map[string]TableStats) PlannerOption {
	return func(p *Planner) { p.stats = stats }
}

// WithObserverFeedback installs a source of prior-run measurements (a
// *Feedback loaded via -stats-in, or a live *FeedbackRecorder teed into the
// run's Observer). Measured pair counts override the statistical estimate
// for the pipeline they were recorded on.
func WithObserverFeedback(src FeedbackSource) PlannerOption {
	return func(p *Planner) { p.src = src }
}

// WithMemoryBudget tells the cost model the engine's MemoryBudgetBytes so
// it can penalize working sets that spill (0 = unbounded).
func WithMemoryBudget(bytes int64) PlannerOption {
	return func(p *Planner) { p.budget = bytes }
}

// WithParallelism tells the cost model the worker count (default
// runtime.GOMAXPROCS).
func WithParallelism(n int) PlannerOption {
	return func(p *Planner) {
		if n > 0 {
			p.parallelism = n
		}
	}
}

// NewPlanner builds a Planner. With no options it plans by rule shape:
// StaticCost, no statistics.
func NewPlanner(opts ...PlannerOption) *Planner {
	p := &Planner{
		model:       StaticCost{},
		parallelism: runtime.GOMAXPROCS(0),
	}
	for _, o := range opts {
		o(p)
	}
	return p
}

// PlanAlternative is one legal physical choice for a pipeline, priced.
// PhysicalPipeline.Alternatives keeps all of them (chosen and rejected) so
// EXPLAIN can audit the decision.
type PlanAlternative struct {
	Impl IterImpl
	// Broadcast marks the one-partition variant: the same grouping, into
	// a single destination partition, so every block lands in one task.
	Broadcast bool
	// Default marks the alternative the legacy rule-shape switch picks.
	Default bool
	// BlockAttr names the block key this alternative partitions on ("" when
	// unkeyed); AltBlock is the index into Branch.AltBlocks (-1 = the
	// primary Block).
	BlockAttr string
	AltBlock  int
	// NumParts is the OCJoin partition count (0 = parallelism).
	NumParts int
	// Cost is the model's estimate; Chosen marks the winner.
	Cost   Cost
	Chosen bool
}

// Label renders the alternative for EXPLAIN output.
func (a PlanAlternative) Label() string {
	switch {
	case a.Impl == IterOCJoin:
		if a.NumParts > 0 {
			return fmt.Sprintf("OCJoin(parts=%d)", a.NumParts)
		}
		return "OCJoin(parts=auto)"
	case a.Impl == IterCoBlockPairs && a.Broadcast:
		return "BroadcastCoBlock"
	case a.Broadcast:
		return "Broadcast" + a.Impl.String()
	case a.AltBlock >= 0 && a.BlockAttr != "":
		return fmt.Sprintf("%s(block=%s)", a.Impl.String(), a.BlockAttr)
	default:
		return a.Impl.String()
	}
}

// blockKeyName names one candidate block key of a branch: alt < 0 is the
// primary Block (Branch.BlockAttr or "block"), alt >= 0 indexes AltBlocks.
func blockKeyName(b Branch, alt int) string {
	if alt >= 0 {
		if alt < len(b.AltBlockAttrs) && b.AltBlockAttrs[alt] != "" {
			return b.AltBlockAttrs[alt]
		}
		return fmt.Sprintf("alt%d", alt)
	}
	if b.BlockAttr != "" {
		return b.BlockAttr
	}
	return "block"
}

// enumerateAlternatives lists the legal physical choices of one pipeline in
// deterministic order, rule-shape choice first (alts[0].Default = true), so
// StaticCost — which prices the default at zero and breaks ties in order —
// picks it.
func enumerateAlternatives(p Pipeline, parallelism int) ([]PlanAlternative, error) {
	switch {
	case p.Unary:
		return []PlanAlternative{{Impl: IterSingles, Default: true, AltBlock: -1}}, nil
	case p.Iterate != nil:
		return []PlanAlternative{{Impl: IterCustom, Default: true, AltBlock: -1}}, nil
	case len(p.OrderConds) > 0:
		base := p.NumParts
		if base <= 0 {
			base = parallelism
		}
		alts := []PlanAlternative{{Impl: IterOCJoin, Default: true, AltBlock: -1, NumParts: p.NumParts}}
		for _, parts := range []int{2 * base, 4 * base} {
			if parts == p.NumParts {
				continue
			}
			alts = append(alts, PlanAlternative{Impl: IterOCJoin, AltBlock: -1, NumParts: parts})
		}
		return alts, nil
	case len(p.Branches) > 1:
		for _, b := range p.Branches {
			if b.Block == nil {
				return nil, fmt.Errorf("core: pipeline %s: CoBlock branches must all have Block operators", p.RuleID)
			}
		}
		return []PlanAlternative{
			{Impl: IterCoBlockPairs, Default: true, AltBlock: -1},
			{Impl: IterCoBlockPairs, Broadcast: true, AltBlock: -1},
		}, nil
	case p.Branches[0].Block != nil:
		impl := IterOrderedPairs
		if p.Symmetric {
			impl = IterUniquePairs
		}
		b := p.Branches[0]
		alts := []PlanAlternative{
			{Impl: impl, Default: true, AltBlock: -1, BlockAttr: blockKeyName(b, -1)},
		}
		// Alternate block keys and the broadcast variant are only legal on
		// base scans (derived streams are single-shot and feed the custom
		// path anyway).
		if b.Derived == nil {
			for i := range b.AltBlocks {
				alts = append(alts, PlanAlternative{
					Impl: impl, AltBlock: i, BlockAttr: blockKeyName(b, i),
				})
			}
			alts = append(alts, PlanAlternative{
				Impl: impl, Broadcast: true, AltBlock: -1, BlockAttr: blockKeyName(b, -1),
			})
		}
		return alts, nil
	case p.Symmetric:
		return []PlanAlternative{{Impl: IterUniquePairs, Default: true, AltBlock: -1}}, nil
	default:
		return []PlanAlternative{{Impl: IterOrderedPairs, Default: true, AltBlock: -1}}, nil
	}
}

// renderOps builds the EXPLAIN operator sequence for one pipeline under one
// alternative. It matches the legacy rendering, plus the markers the legacy
// path omitted (OCJoin's RangePartition, CoBlock's Co-Block) and the
// Broadcast marker for one-partition variants.
func renderOps(p Pipeline, alt PlanAlternative) []string {
	var ops []string
	for _, b := range p.Branches {
		if len(b.Scopes) > 0 {
			ops = append(ops, "PScope")
		}
	}
	switch {
	case alt.Impl == IterSingles:
	case alt.Impl == IterCustom:
		if len(p.Branches) > 1 {
			ops = append(ops, "Co-Block")
		} else if p.Branches[0].Block != nil {
			ops = append(ops, "PBlock")
		}
	case alt.Impl == IterOCJoin:
		ops = append(ops, "RangePartition")
	case alt.Impl == IterCoBlockPairs:
		if alt.Broadcast {
			ops = append(ops, "Broadcast")
		} else {
			ops = append(ops, "Co-Block")
		}
	case p.Branches[0].Block != nil || alt.AltBlock >= 0:
		if alt.Broadcast {
			ops = append(ops, "Broadcast")
		} else {
			ops = append(ops, "PBlock")
		}
	}
	ops = append(ops, alt.Impl.String(), "PDetect")
	if p.GenFix != nil {
		ops = append(ops, "PGenFix")
	}
	return ops
}

// Plan consolidates the logical plan and translates each pipeline into
// physical operators, choosing the cheapest legal alternative under the
// planner's cost model. The full alternative list (with costs, chosen
// first-class) is kept on each PhysicalPipeline for EXPLAIN.
func (pl *Planner) Plan(lp *LogicalPlan) (*PhysicalPlan, error) {
	lp = Consolidate(lp)
	pp := &PhysicalPlan{Name: lp.Name, Logical: lp, SharedScans: lp.SharedScans}
	var fb *Feedback
	if pl.src != nil {
		fb = pl.src.PlanFeedback()
	}
	for _, p := range lp.Pipelines {
		phys, err := pl.planPipeline(lp, p, fb)
		if err != nil {
			return nil, err
		}
		pp.Pipelines = append(pp.Pipelines, phys)
	}
	pl.remember(pp)
	return pp, nil
}

// branchStats resolves statistics for one branch: WithTableStats overrides
// by label, else one sampling pass over the base relation. Derived branches
// (no base relation) get zero stats — their alternatives are not enumerated
// anyway.
func (pl *Planner) branchStats(lp *LogicalPlan, b Branch) TableStats {
	if st, ok := pl.stats[b.Label]; ok {
		return st
	}
	if b.Derived != nil {
		return TableStats{BlockKeys: map[string]BlockKeyStats{}}
	}
	return sampleBranchStats(lp.Inputs[b.Dataset], b, pl.parallelism)
}

func (pl *Planner) planPipeline(lp *LogicalPlan, p Pipeline, fb *Feedback) (PhysicalPipeline, error) {
	alts, err := enumerateAlternatives(p, pl.parallelism)
	if err != nil {
		return PhysicalPipeline{}, err
	}

	// Statistics are only gathered when the model prices them; StaticCost
	// keeps planning allocation-free.
	_, static := pl.model.(StaticCost)
	var left, right TableStats
	if !static {
		left = pl.branchStats(lp, p.Branches[0])
		if len(p.Branches) > 1 {
			right = pl.branchStats(lp, p.Branches[1])
		}
	}
	var measured int64
	if fb != nil {
		if pf, ok := fb.Pipelines[p.RuleID]; ok {
			measured = pf.Pairs
		}
	}

	best := 0
	for i := range alts {
		a := &alts[i]
		in := CostInputs{
			Impl:         a.Impl,
			Broadcast:    a.Broadcast,
			Default:      a.Default,
			Rows:         left.Rows,
			TupleBytes:   left.TupleBytes,
			NumParts:     a.NumParts,
			Parallelism:  pl.parallelism,
			MemoryBudget: pl.budget,
		}
		if len(p.Branches) > 1 {
			in.RowsRight = right.Rows
			in.TupleBytesRight = right.TupleBytes
		}
		if a.BlockAttr != "" || a.Impl == IterCoBlockPairs {
			in.HasBlock = true
			in.Block = left.BlockKeys[blockKeyName(p.Branches[0], a.AltBlock)]
			if len(p.Branches) > 1 {
				in.BlockRight = right.BlockKeys[blockKeyName(p.Branches[1], -1)]
			}
		}
		// Measured pair counts describe the plan the prior run executed —
		// only the primary-key (default-shaped) blocked/broadcast and
		// custom/co-block alternatives reuse them; alternate keys and
		// repartitioned OCJoins enumerate different pairs.
		if measured > 0 && a.AltBlock < 0 && a.Impl != IterOCJoin {
			in.MeasuredPairs = measured
		}
		a.Cost = pl.model.Cost(in)
		if a.Cost.Total() < alts[best].Cost.Total() {
			best = i
		}
	}
	chosen := &alts[best]
	chosen.Chosen = true

	phys := PhysicalPipeline{Pipeline: p, Impl: chosen.Impl, Broadcast: chosen.Broadcast}
	phys.EstCost = chosen.Cost
	if !static {
		// Static planning keeps the legacy EXPLAIN output (the 0/1 tie-break
		// costs audit nothing); cost-based plans carry the full audit trail.
		phys.Alternatives = alts
	}
	phys.Ops = renderOps(p, *chosen)
	if chosen.Impl == IterOCJoin && !chosen.Default {
		phys.NumParts = chosen.NumParts
	}
	if chosen.AltBlock >= 0 {
		// Re-key the branch on the alternate block key. Clone the slice so
		// the logical plan (and other planners) keep the original.
		branches := make([]Branch, len(p.Branches))
		copy(branches, p.Branches)
		b := &branches[0]
		b.Block = b.AltBlocks[chosen.AltBlock]
		b.BlockAttr = chosen.BlockAttr
		phys.Branches = branches
		phys.DetectBlock = nil // the block kernel assumes the primary Block's groups
	}
	return phys, nil
}

// remember keeps a bounded history of plan explanations for audit endpoints
// (serve's EXPLAIN shows the decisions of the latest re-plans).
func (pl *Planner) remember(pp *PhysicalPlan) {
	const maxHistory = 8
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.history = append(pl.history, pp.Explain())
	if len(pl.history) > maxHistory {
		pl.history = pl.history[len(pl.history)-maxHistory:]
	}
}

// History returns the explanations of the plans this planner produced,
// oldest first (bounded).
func (pl *Planner) History() []string {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	out := make([]string, len(pl.history))
	copy(out, pl.history)
	return out
}

// ModelName names the planner's cost model ("static", "cost").
func (pl *Planner) ModelName() string { return pl.model.Name() }

// explainAlternatives renders the chosen-vs-rejected audit block of one
// pipeline (used by PhysicalPlan.Explain).
func explainAlternatives(b *strings.Builder, p PhysicalPipeline) {
	if len(p.Alternatives) == 0 {
		return
	}
	for _, a := range p.Alternatives {
		marker := "rejected"
		if a.Chosen {
			marker = "chosen  "
		}
		fmt.Fprintf(b, "    %s %-28s %s\n", marker, a.Label(), a.Cost.String())
	}
}
