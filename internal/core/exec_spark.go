package core

import (
	"fmt"
	"hash/maphash"
	"slices"
	"sync/atomic"
	"time"

	"bigdansing/internal/engine"
	"bigdansing/internal/join"
	"bigdansing/internal/model"
)

// DetectResult is the output of running a plan's detection stage: the
// deduplicated violations and, per violation, its possible fixes.
type DetectResult struct {
	Violations []model.Violation
	FixSets    []model.FixSet
}

// RunPlanSpark executes the physical plan's detection pipelines on the
// dataflow engine (Appendix G.1's translation): Scope becomes map/filter,
// Block becomes groupByKey, CoBlock becomes cogroup, Iterate becomes the
// chosen pair enumeration (or OCJoin), Detect and GenFix become flat maps.
// Every pipeline runs one body — scan, scope, partition, per-group detect,
// dedup, GenFix, collect — whatever its Iterate choice or backend. The
// engine is lazy, so per-group detection, dedup's keying and GenFix fuse
// into per-partition stages at the shuffles that bound them.
// The pipelines' per-group fix-set lists are assembled into one result
// that reports each violation once, matching the paper's observation that
// BigDansing, unlike SQL self-joins, does not emit duplicate violations: a
// pipeline that cannot repeat one is concatenated as it is, and the rest
// are deduplicated on the violations' canonical key (see assemble).
func RunPlanSpark(ctx *engine.Context, pp *PhysicalPlan) (*DetectResult, error) {
	return newSparkExec(ctx).run(pp)
}

type sparkExec struct {
	ctx *engine.Context
	// tuples caches the scoped scans.
	tuples map[scanKey]*engine.Dataset[model.Tuple]
}

func newSparkExec(ctx *engine.Context) *sparkExec {
	return &sparkExec{ctx: ctx, tuples: make(map[scanKey]*engine.Dataset[model.Tuple])}
}

func (ex *sparkExec) run(pp *PhysicalPlan) (*DetectResult, error) {
	srcs := make([]detected, len(pp.Pipelines))
	for i := range pp.Pipelines {
		p := &pp.Pipelines[i]
		lists, err := ex.runPipeline(pp, p)
		if err != nil {
			return nil, err
		}
		srcs[i] = detected{lists: lists, unique: p.unique()}
	}
	return assemble(srcs), nil
}

// unique reports whether the pipeline's output repeats no violation by
// construction: its Distinct stage ran (the both-orientation enumerations),
// or it runs a unique kernel on its base branch (see kernelUnique).
func (p *PhysicalPipeline) unique() bool {
	switch p.Impl {
	case IterOrderedPairs, IterCoBlockPairs, IterCustom:
		return true
	case IterUniquePairs:
		b := p.Branches[0]
		return kernelUnique(p.DetectBlock, false, b.Block != nil && b.Derived == nil && len(b.Scopes) == 0)
	}
	return false
}

// kernelUnique reports whether a blocked pair detector repeats no violation
// by construction: it is a block kernel run unordered (BlockDetectFunc
// states the contract) over the blocks of a scope-free base scan, so each
// tuple lies in one block. Every other detector may repeat a violation
// (DESIGN.md §7, "Where dedup runs").
func kernelUnique(kernel BlockDetectFunc, ordered, baseUnscoped bool) bool {
	return kernel != nil && !ordered && baseUnscoped
}

// runPipeline runs one pipeline and returns its fix sets, one list per group
// in partition order, for assemble to concatenate.
func (ex *sparkExec) runPipeline(pp *PhysicalPlan, p *PhysicalPipeline) ([][]model.FixSet, error) {
	sp := ex.ctx.Observer().BeginSpan(nil, p.RuleID, engine.SpanPipeline)
	defer sp.End()
	m := &udfMeter{on: ex.ctx.Instrumented()}
	groups, err := ex.violations(pp, p, m)
	if err != nil {
		return nil, err
	}
	// OCJoin, unique pairs and single units produce each candidate once by
	// construction, so only the both-orientation enumerations pay the dedup
	// shuffle, on the violations alone; each partition of its output is one
	// group for GenFix.
	switch p.Impl {
	case IterOrderedPairs, IterCoBlockPairs, IterCustom:
		flat := engine.FlatMap(groups, func(sets []model.FixSet) []model.Violation {
			vs := make([]model.Violation, len(sets))
			for i := range sets {
				vs[i] = sets[i].Violation
			}
			return vs
		})
		groups = engine.MapPartitions(engine.Distinct(flat, model.Violation.MapKey), func(_ int, vs []model.Violation) [][]model.FixSet {
			return [][]model.FixSet{appendSets(make([]model.FixSet, 0, len(vs)), vs)}
		})
	}
	lists, err := engine.Map(groups, m.genFix(p.GenFix)).Collect()
	if err != nil {
		return nil, fmt.Errorf("core: detection pipeline %s failed: %w", p.RuleID, err)
	}
	m.finish(sp, lists)
	return lists, nil
}

// violations builds a pipeline's (lazy) violations, one list of fix sets
// (Fixes unset) per group: its branches are scanned and partitioned —
// grouped by block key, co-grouped, or range-partitioned by OCJoin — and
// one detector runs per group or partition task.
func (ex *sparkExec) violations(pp *PhysicalPlan, p *PhysicalPipeline, m *udfMeter) (*engine.Dataset[[]model.FixSet], error) {
	wire := projection(p.reads)
	switch p.Impl {
	case IterCoBlockPairs:
		cg, err := ex.coGroupBranches(pp, p, p.Branches, wire)
		if err != nil {
			return nil, err
		}
		return engine.Map(cg, metered(m, func(g engine.Pair[model.ValueKey, engine.CoGrouped[model.Tuple, model.Tuple]]) ([]model.FixSet, int64) {
			return pairsAcross(p.Detect, g.Value.Left, g.Value.Right)
		})), nil
	case IterCustom:
		groups, err := ex.iterateGroups(pp, p, p.Branches, wire)
		if err != nil {
			return nil, err
		}
		return engine.Map(groups, metered(m, func(bags [][]model.Tuple) ([]model.FixSet, int64) {
			return detectItems(p.Detect, p.Iterate(bags))
		})), nil
	}
	b := p.Branches[0]
	first, err := ex.branchStream(pp, p, b)
	if err != nil {
		return nil, err
	}
	switch p.Impl {
	case IterSingles:
		det := metered(m, singlesDetector(p.Detect))
		return engine.MapPartitions(first, func(_ int, ts []model.Tuple) [][]model.FixSet { return [][]model.FixSet{det(ts)} }), nil

	case IterOCJoin:
		tasks, err := join.OCJoin(first.MovedAs(wire), p.OrderConds, 0)
		if err != nil {
			return nil, fmt.Errorf("core: OCJoin in %s: %w", p.RuleID, err)
		}
		return engine.Map(tasks, metered(m, func(tk join.Task) ([]model.FixSet, int64) {
			return joinDetect(p.Detect, tk)
		})), nil

	case IterUniquePairs, IterOrderedPairs:
		ordered := p.Impl == IterOrderedPairs
		if b.Block == nil {
			// No Block: the relation is one block, whose outer loop is split
			// into one contiguous range per task.
			all, err := first.Collect()
			if err != nil {
				return nil, err
			}
			step := max(1, (len(all)+ex.ctx.Parallelism()-1)/ex.ctx.Parallelism())
			var spans [][2]int
			for lo := 0; lo < len(all); lo += step {
				spans = append(spans, [2]int{lo, min(lo+step, len(all))})
			}
			return engine.Map(engine.Parallelize(ex.ctx, spans, 0), metered(m, func(s [2]int) ([]model.FixSet, int64) {
				return pairsIn(p.Detect, all, s[0], s[1], ordered)
			})), nil
		}
		det := blockDetector(p.DetectBlock, p.Detect, ordered)
		return engine.Map(ex.blocks(first.MovedAs(wire), b.Block), metered(m, func(g engine.Pair[model.ValueKey, []model.Tuple]) ([]model.FixSet, int64) {
			return det(g.Value)
		})), nil
	}
	return nil, fmt.Errorf("core: pipeline %s: unknown iterate implementation", p.RuleID)
}

// blockDetector is the per-block detector of a blocked pair pipeline: the
// rule's block kernel when it has one, otherwise the planner's pair
// enumeration calling Detect inline. Both find the same violations in
// the same order; each reports the pairs it compared.
func blockDetector(kernel BlockDetectFunc, detect DetectFunc, ordered bool) func([]model.Tuple) ([]model.FixSet, int64) {
	if kernel != nil {
		return func(us []model.Tuple) ([]model.FixSet, int64) { return kernel(us, ordered) }
	}
	return func(us []model.Tuple) ([]model.FixSet, int64) {
		return pairsIn(detect, us, 0, len(us), ordered)
	}
}

// singlesDetector feeds Detect each unit of a group on its own.
func singlesDetector(detect DetectFunc) func([]model.Tuple) ([]model.FixSet, int64) {
	return func(ts []model.Tuple) ([]model.FixSet, int64) {
		var out []model.FixSet
		for _, t := range ts {
			out = appendSets(out, detect(Single(t)))
		}
		return out, int64(len(ts))
	}
}

// joinDetect feeds Detect the pairs of one OCJoin task as the join visits
// them, through one reused pair Item. A pair satisfies the rule's ordering
// conditions, so most pairs are violations: the fix sets are sized once
// from the join's own count of the task's pairs.
func joinDetect(detect DetectFunc, tk join.Task) ([]model.FixSet, int64) {
	out := make([]model.FixSet, 0, tk.Bound())
	it := Item{Kind: ItemPair, Tuples: make([]model.Tuple, 2)}
	var n int64
	tk.Each(func(l, r model.Tuple) {
		it.Tuples[0], it.Tuples[1] = l, r
		out = appendSets(out, detect(it))
		n++
	})
	return out, n
}

// detectItems feeds Detect the items a user Iterate produced.
func detectItems(detect DetectFunc, items []Item) ([]model.FixSet, int64) {
	var out []model.FixSet
	for _, it := range items {
		out = appendSets(out, detect(it))
	}
	return out, int64(len(items))
}

// udfMeter is a pipeline's one instrumentation point: the Detect and GenFix
// timers and the pair counter. Every path reports through it once per group
// or partition task — never per pair — and only when a user Observer is
// installed; with the default Stats observer it measures nothing.
type udfMeter struct {
	on                        bool
	detectNs, genfixNs, pairs atomic.Int64
}

// metered wraps a per-group detector, which returns its violations as fix
// sets and the number of candidates it fed to Detect, with the meter's
// timer and counter.
func metered[G any](m *udfMeter, detect func(G) ([]model.FixSet, int64)) func(G) []model.FixSet {
	return func(g G) []model.FixSet {
		if !m.on {
			vs, _ := detect(g)
			return vs
		}
		t0 := time.Now()
		vs, n := detect(g)
		m.detectNs.Add(int64(time.Since(t0)))
		m.pairs.Add(n)
		return vs
	}
}

// genFix runs GenFix over one group's fix sets, filling each one's Fixes in
// place, timed once per group that has any. A pipeline without GenFix
// yields fix sets with no fixes.
func (m *udfMeter) genFix(genfix GenFixFunc) func([]model.FixSet) []model.FixSet {
	return func(sets []model.FixSet) []model.FixSet {
		if len(sets) == 0 {
			return nil
		}
		var t0 time.Time
		if m.on {
			t0 = time.Now()
		}
		if genfix != nil {
			for i := range sets {
				sets[i].Fixes = genfix(sets[i].Violation)
			}
		}
		if m.on {
			m.genfixNs.Add(int64(time.Since(t0)))
		}
		return sets
	}
}

// finish stamps the pipeline span's summary attributes from its per-group
// fix-set lists: the counts always, the UDF timers and the pair count only
// when they were measured.
func (m *udfMeter) finish(sp engine.Span, lists [][]model.FixSet) {
	violations, fixes := 0, 0
	for _, sets := range lists {
		violations += len(sets)
		for _, fs := range sets {
			fixes += len(fs.Fixes)
		}
	}
	sp.Attr(engine.AttrViolations, int64(violations))
	sp.Attr(engine.AttrFixes, int64(fixes))
	if m.on {
		sp.Attr(engine.AttrDetectNanos, m.detectNs.Load())
		sp.Attr(engine.AttrGenFixNanos, m.genfixNs.Load())
		sp.Attr(engine.AttrPairs, m.pairs.Load())
	}
}

// scan resolves a base branch's relation and the key of its scoped stream.
func (ex *sparkExec) scan(pp *PhysicalPlan, b Branch) (*model.Relation, scanKey, error) {
	rel, ok := pp.Logical.Inputs[b.Dataset]
	if !ok {
		return nil, scanKey{}, fmt.Errorf("core: plan %s references unknown dataset %q", pp.Name, b.Dataset)
	}
	return rel, scanOf(rel, b.Scopes), nil
}

// branchStream materializes a branch's scoped tuple stream, cached per scan
// so consolidated scans run once; derived branches (an upstream Iterate's
// output, Figure 4) run that Iterate and flatten its items back to units.
func (ex *sparkExec) branchStream(pp *PhysicalPlan, p *PhysicalPipeline, b Branch) (*engine.Dataset[model.Tuple], error) {
	if b.Derived != nil {
		// The upstream Iterate is the job's, not the rule's: its inputs move
		// whole.
		groups, err := ex.iterateGroups(pp, p, b.Derived.Branches, nil)
		if err != nil {
			return nil, err
		}
		iterate := b.Derived.Iterate
		d := engine.FlatMap(groups, func(bags [][]model.Tuple) []model.Tuple {
			var units []model.Tuple
			for _, it := range iterate(bags) {
				units = append(units, it.Tuples...)
			}
			return units
		})
		for _, s := range b.Scopes {
			d = engine.FlatMap(d, s)
		}
		// Force the derived stream: it feeds a downstream pipeline and any
		// upstream failure should surface here with the branch's label.
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("core: derived stream %s failed: %w", b.Label, err)
		}
		return d, nil
	}
	rel, key, err := ex.scan(pp, b)
	if err != nil {
		return nil, err
	}
	if d, ok := ex.tuples[key]; ok {
		return d, nil
	}
	d := ex.baseTuples(rel)
	for _, s := range b.Scopes {
		d = engine.FlatMap(d, s)
	}
	// Err is an action: the scope chain runs here as one fused stage and the
	// stream is cached, so every pipeline sharing this consolidated scan
	// (Algorithm 1) reuses it instead of re-running the scopes.
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("core: Scope failed: %w", err)
	}
	ex.tuples[key] = d
	return d, nil
}

// baseTuples is a relation's unscoped tuple scan, made once per executor.
func (ex *sparkExec) baseTuples(rel *model.Relation) *engine.Dataset[model.Tuple] {
	key := scanOf(rel, nil)
	if d, ok := ex.tuples[key]; ok {
		return d
	}
	d := engine.Parallelize(ex.ctx, rel.Tuples, 0)
	ex.tuples[key] = d
	return d
}

// iterateGroups lists the inputs of a user Iterate's calls: one per
// co-grouped key when the first two branches are keyed, one per block of a
// single keyed branch, and one call over the materialized bags otherwise.
// The grouped tuples move as wire encodes them (nil: whole).
func (ex *sparkExec) iterateGroups(pp *PhysicalPlan, p *PhysicalPipeline, branches []Branch, wire func([]byte, model.Tuple) []byte) (*engine.Dataset[[][]model.Tuple], error) {
	switch {
	case len(branches) >= 2 && branches[0].Block != nil && branches[1].Block != nil:
		cg, err := ex.coGroupBranches(pp, p, branches, wire)
		if err != nil {
			return nil, err
		}
		return engine.Map(cg, func(g engine.Pair[model.ValueKey, engine.CoGrouped[model.Tuple, model.Tuple]]) [][]model.Tuple {
			return [][]model.Tuple{g.Value.Left, g.Value.Right}
		}), nil
	case len(branches) == 1 && branches[0].Block != nil:
		first, err := ex.branchStream(pp, p, branches[0])
		if err != nil {
			return nil, err
		}
		return engine.Map(ex.blocks(first.MovedAs(wire), branches[0].Block), func(g engine.Pair[model.ValueKey, []model.Tuple]) [][]model.Tuple {
			return [][]model.Tuple{g.Value}
		}), nil
	default:
		bags := make([][]model.Tuple, len(branches))
		for i, b := range branches {
			s, err := ex.branchStream(pp, p, b)
			if err != nil {
				return nil, err
			}
			if bags[i], err = s.Collect(); err != nil {
				return nil, err
			}
		}
		return engine.Parallelize(ex.ctx, [][][]model.Tuple{bags}, 0), nil
	}
}

// blocks groups a branch stream by its Block key into the context's
// parallelism of partitions. Grouping is on the value's comparable MapKey,
// computed where the tuples lie — no keyed-pair dataset and no per-record
// key string is materialized.
func (ex *sparkExec) blocks(d *engine.Dataset[model.Tuple], block BlockFunc) *engine.Dataset[engine.Pair[model.ValueKey, []model.Tuple]] {
	return engine.GroupBy(d, func(t model.Tuple) model.ValueKey { return block(t).MapKey() })
}

// coGroupBranches co-groups the first two branches on their Block keys into
// the context's parallelism of partitions, moving their tuples as wire
// encodes them (nil: whole).
func (ex *sparkExec) coGroupBranches(pp *PhysicalPlan, p *PhysicalPipeline, branches []Branch, wire func([]byte, model.Tuple) []byte) (*engine.Dataset[engine.Pair[model.ValueKey, engine.CoGrouped[model.Tuple, model.Tuple]]], error) {
	left, err := ex.branchStream(pp, p, branches[0])
	if err != nil {
		return nil, err
	}
	right, err := ex.branchStream(pp, p, branches[1])
	if err != nil {
		return nil, err
	}
	lb, rb := branches[0].Block, branches[1].Block
	cg := engine.CoGroupBy(left.MovedAs(wire), right.MovedAs(wire),
		func(t model.Tuple) model.ValueKey { return lb(t).MapKey() },
		func(t model.Tuple) model.ValueKey { return rb(t).MapKey() })
	if err := cg.Err(); err != nil {
		return nil, err
	}
	return cg, nil
}

// violationSeed seeds the hash of assemble's seen-set; it only has to be
// consistent within one call.
var violationSeed = maphash.MakeSeed()

// detected is one source of the detect→repair hand-off: a pipeline's
// fix-set lists (one per group) or an incremental rule's cached blocks, in
// order. unique reports that no violation repeats among them by
// construction.
type detected struct {
	lists  [][]model.FixSet
	unique bool
}

// assemble is the detect→repair hand-off: it concatenates the sources'
// fix-set lists, in order, into one result whose slices are each allocated
// once at their exact size, dropping every violation already seen — the
// first occurrence wins, across groups, pipelines and rules alike.
func assemble(srcs []detected) *DetectResult {
	return assembleHashed(srcs, func(k model.ViolationKey) uint64 { return maphash.Comparable(violationSeed, k) })
}

// assembleHashed is assemble with the seen-set's hash function supplied.
//
// When only one source has fix sets and it is unique, it is copied without
// hashing. Otherwise every fix set goes through the seen-set, which maps a
// 64-bit hash of the canonical ViolationKey to the index of the first kept
// fix set with that hash, so it holds 12 bytes per violation instead of the
// full key; a hit is confirmed on the full key, and a different key under a
// taken hash (a true collision) is tracked exactly in a small overflow set.
func assembleHashed(srcs []detected, hash func(model.ViolationKey) uint64) *DetectResult {
	total, live, only := 0, 0, -1
	for i, s := range srcs {
		n := 0
		for _, sets := range s.lists {
			n += len(sets)
		}
		if n > 0 {
			live, only = live+1, i
		}
		total += n
	}
	out := make([]model.FixSet, 0, total)
	if live == 1 && srcs[only].unique {
		for _, sets := range srcs[only].lists {
			out = append(out, sets...)
		}
		return fixSetResult(out)
	}
	first := make(map[uint64]int32, total)
	overflow := map[model.ViolationKey]struct{}{}
	for _, s := range srcs {
		for _, sets := range s.lists {
			for _, fs := range sets {
				k := fs.Violation.MapKey()
				h := hash(k)
				i, hit := first[h]
				switch {
				case !hit:
					first[h] = int32(len(out))
				case out[i].Violation.MapKey() == k:
					continue
				default:
					if _, dup := overflow[k]; dup {
						continue
					}
					overflow[k] = struct{}{}
				}
				out = append(out, fs)
			}
		}
	}
	return fixSetResult(slices.Clip(out)) // shorter than total only when something repeated
}

// fixSetResult wraps assembled fix sets, filling Violations in one pass.
func fixSetResult(sets []model.FixSet) *DetectResult {
	vs := make([]model.Violation, len(sets))
	for i := range sets {
		vs[i] = sets[i].Violation
	}
	return &DetectResult{Violations: vs, FixSets: sets}
}

// compilePlan runs a logical planner and the physical Planner under one
// plan span, so a tracer sees how long logical->physical compilation took
// and what the planner decided (pipeline count, consolidated shared scans).
func compilePlan(ctx *engine.Context, plan func() (*LogicalPlan, error)) (*PhysicalPlan, error) {
	sp := ctx.Observer().BeginSpan(nil, "compile", engine.SpanPlan)
	defer sp.End()
	lp, err := plan()
	if err != nil {
		return nil, err
	}
	pp, err := NewPlanner().Plan(lp)
	if err != nil {
		return nil, err
	}
	sp.Attr(engine.AttrPipelines, int64(len(pp.Pipelines)))
	sp.Attr(engine.AttrSharedScans, int64(pp.SharedScans))
	return pp, nil
}

// DetectRule is the convenience entry point: plan and run one rule over a
// relation on the dataflow backend, planned by rule shape.
func DetectRule(ctx *engine.Context, r *Rule, rel *model.Relation) (*DetectResult, error) {
	return detect(ctx, func() (*LogicalPlan, error) { return PlanRule(r, rel) })
}

// DetectRules plans all rules over one relation as a single consolidated
// plan and runs it.
func DetectRules(ctx *engine.Context, rs []*Rule, rel *model.Relation) (*DetectResult, error) {
	return detect(ctx, func() (*LogicalPlan, error) { return PlanRules(rs, rel) })
}

// detect compiles a logical plan and runs it on ctx.
func detect(ctx *engine.Context, plan func() (*LogicalPlan, error)) (*DetectResult, error) {
	pp, err := compilePlan(ctx, plan)
	if err != nil {
		return nil, err
	}
	return RunPlanSpark(ctx, pp)
}
