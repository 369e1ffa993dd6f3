package core

import (
	"fmt"
	"reflect"
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

// NumViolations returns the violation count.
func (r *DetectResult) NumViolations() int { return len(r.Violations) }

// AllFixes flattens every possible fix.
func (r *DetectResult) AllFixes() []model.Fix {
	var out []model.Fix
	for _, fs := range r.FixSets {
		out = append(out, fs.Fixes...)
	}
	return out
}

// Merge appends another result (used when accumulating over plans).
func (r *DetectResult) Merge(o *DetectResult) {
	r.Violations = append(r.Violations, o.Violations...)
	r.FixSets = append(r.FixSets, o.FixSets...)
}

// RunPlanSpark executes the physical plan's detection pipelines on the
// in-memory dataflow backend (Appendix G.1's translation): Scope becomes
// map/filter, Block becomes groupByKey, CoBlock becomes cogroup, Iterate
// becomes the chosen pair enumeration (or OCJoin), Detect and GenFix become
// flat maps. The backend is lazy, so each pipeline's narrow tail —
// enumeration, Detect, GenFix — fuses into a single per-partition stage at
// the pipeline's collect; only Block/CoBlock shuffles break the pipeline
// into stages. Violations are deduplicated on their canonical key, matching
// the paper's observation that BigDansing, unlike SQL self-joins, does not
// emit duplicate violations.
func RunPlanSpark(ctx *engine.Context, pp *PhysicalPlan) (*DetectResult, error) {
	return newSparkExec(ctx).run(pp)
}

// scanKey identifies a consolidated scoped scan: same dataset (labels over
// one relation resolve to the same scan) + same scope chain ⇒ one
// materialization (Algorithm 1's effect at execution time).
type scanKey struct {
	rel    *model.Relation
	scopes [4]uintptr // first scopes' fn pointers; enough to discriminate
}

type sparkExec struct {
	ctx *engine.Context
	// batchSize is the context's vectorized batch size; 0 keeps every
	// pipeline on the tuple path.
	batchSize int

	base   map[*model.Relation]*engine.Dataset[model.Tuple]
	scoped map[scanKey]*engine.Dataset[model.Tuple]

	// Batch-path state (exec_vector.go): the chunked base batches and the
	// scoped batch streams, cached under the same scan keys as the tuple
	// path so consolidated scans share materializations on either path.
	batched   map[batchKey]*engine.Dataset[*model.Batch]
	scopedVec map[scanKey]*engine.Dataset[*model.Batch]
	// pre holds relations whose data arrived as pre-built column batches
	// (DetectRuleOnBatches); the batch path reads them zero-copy and the
	// tuple path materializes them once in dataset().
	pre map[*model.Relation][]*model.Batch
}

func newSparkExec(ctx *engine.Context) *sparkExec {
	return &sparkExec{
		ctx:       ctx,
		batchSize: ctx.BatchSize(),
		base:      make(map[*model.Relation]*engine.Dataset[model.Tuple]),
		scoped:    make(map[scanKey]*engine.Dataset[model.Tuple]),
		batched:   make(map[batchKey]*engine.Dataset[*model.Batch]),
		scopedVec: make(map[scanKey]*engine.Dataset[*model.Batch]),
		pre:       make(map[*model.Relation][]*model.Batch),
	}
}

func (ex *sparkExec) run(pp *PhysicalPlan) (*DetectResult, error) {
	result := &DetectResult{}
	for i := range pp.Pipelines {
		if err := ex.runPipeline(pp, &pp.Pipelines[i], result); err != nil {
			return nil, err
		}
	}
	dedupeResult(result)
	return result, nil
}

func (ex *sparkExec) dataset(pp *PhysicalPlan, name string) (*engine.Dataset[model.Tuple], error) {
	rel, ok := pp.Logical.Inputs[name]
	if !ok {
		return nil, fmt.Errorf("core: plan %s references unknown dataset %q", pp.Name, name)
	}
	if d, ok := ex.base[rel]; ok {
		return d, nil
	}
	ts := rel.Tuples
	if pre := ex.pre[rel]; len(pre) > 0 && len(ts) == 0 {
		// The relation's data arrived columnar; materialize rows once for
		// the tuple path (the relation itself stays untouched).
		for _, b := range pre {
			ts = b.AppendTuples(ts)
		}
	}
	d := engine.Parallelize(ex.ctx, ts, 0)
	ex.base[rel] = d
	return d, nil
}

// branchStream materializes a branch's scoped stream, sharing consolidated
// scans across branches and pipelines. Derived branches (an upstream
// Iterate's output, Figure 4) are computed by running that Iterate and
// flattening its items back to data units.
func (ex *sparkExec) branchStream(pp *PhysicalPlan, b Branch) (*engine.Dataset[model.Tuple], error) {
	if b.Derived != nil {
		items, err := ex.iterateItems(pp, b.Derived.Iterate, b.Derived.Branches)
		if err != nil {
			return nil, err
		}
		d := engine.FlatMap(items, func(it Item) []model.Tuple { return it.Tuples })
		for _, s := range b.Scopes {
			scope := s
			d = engine.FlatMap(d, func(t model.Tuple) []model.Tuple { return scope(t) })
		}
		// Force the derived stream: it feeds a downstream pipeline and any
		// upstream failure should surface here with the branch's label.
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("core: derived stream %s failed: %w", b.Label, err)
		}
		return d, nil
	}
	key := scanKey{rel: pp.Logical.Inputs[b.Dataset]}
	for i, s := range b.Scopes {
		if i >= len(key.scopes) {
			break
		}
		key.scopes[i] = reflect.ValueOf(s).Pointer()
	}
	if d, ok := ex.scoped[key]; ok {
		return d, nil
	}
	d, err := ex.dataset(pp, b.Dataset)
	if err != nil {
		return nil, err
	}
	for _, s := range b.Scopes {
		scope := s
		d = engine.FlatMap(d, func(t model.Tuple) []model.Tuple { return scope(t) })
	}
	// Err is an action: the whole scope chain runs here as one fused stage
	// and the materialized stream is cached, so every pipeline sharing this
	// consolidated scan (Algorithm 1) reuses the computed data instead of
	// re-running the scopes.
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("core: Scope failed: %w", err)
	}
	ex.scoped[key] = d
	return d, nil
}

// iterateItems runs a user Iterate over its branch streams: co-grouped
// when both of two branches are keyed, blockwise for one keyed branch, and
// once over the materialized bags otherwise.
func (ex *sparkExec) iterateItems(pp *PhysicalPlan, iterate IterateFunc, branches []Branch) (*engine.Dataset[Item], error) {
	switch {
	case len(branches) >= 2 && branches[0].Block != nil && branches[1].Block != nil:
		cg, err := ex.coGroupBranches(pp, branches)
		if err != nil {
			return nil, err
		}
		return engine.FlatMap(cg, func(g engine.Pair[model.ValueKey, engine.CoGrouped[model.Tuple, model.Tuple]]) []Item {
			return iterate([][]model.Tuple{g.Value.Left, g.Value.Right})
		}), nil
	case len(branches) >= 2:
		// At least one side unkeyed: materialize every bag and run the
		// Iterate once over them.
		bags := make([][]model.Tuple, len(branches))
		for i, b := range branches {
			s, err := ex.branchStream(pp, b)
			if err != nil {
				return nil, err
			}
			all, err := s.Collect()
			if err != nil {
				return nil, err
			}
			bags[i] = all
		}
		return engine.Parallelize(ex.ctx, iterate(bags), 0), nil
	default:
		first, err := ex.branchStream(pp, branches[0])
		if err != nil {
			return nil, err
		}
		if branches[0].Block != nil {
			grouped := ex.blocks(first, branches[0].Block)
			return engine.FlatMap(grouped, func(g engine.Pair[model.ValueKey, []model.Tuple]) []Item {
				return iterate([][]model.Tuple{g.Value})
			}), nil
		}
		all, err := first.Collect()
		if err != nil {
			return nil, err
		}
		return engine.Parallelize(ex.ctx, iterate([][]model.Tuple{all}), 0), nil
	}
}

// blocks groups a branch stream by its Block key. Grouping is on the
// value's comparable MapKey — no per-record key string is materialized.
func (ex *sparkExec) blocks(d *engine.Dataset[model.Tuple], block BlockFunc) *engine.Dataset[engine.Pair[model.ValueKey, []model.Tuple]] {
	keyed := engine.KeyBy(d, func(t model.Tuple) model.ValueKey { return block(t).MapKey() })
	return engine.GroupByKey(keyed)
}

func (ex *sparkExec) runPipeline(pp *PhysicalPlan, p *PhysicalPipeline, out *DetectResult) error {
	sp := ex.ctx.Observer().BeginSpan(nil, p.RuleID, engine.SpanPipeline)
	defer sp.End()
	// When a user Observer is installed, wrap the Detect and GenFix UDFs
	// with cumulative nanosecond timers (one atomic add per item, never per
	// record cell) and count the candidate items fed to Detect (AttrPairs —
	// the measurement the cost-based planner's feedback loop learns from).
	// With only the default Stats observer the closures stay unwrapped and
	// the hot path pays nothing.
	var detectNs, genfixNs, pairs atomic.Int64
	instrumented := ex.ctx.Instrumented()

	var violations *engine.Dataset[model.Violation]
	if ex.vecEligible(p) {
		dBatch, dBlock := p.Vec.DetectBatch, p.Vec.DetectBlock
		if instrumented {
			if inner := dBatch; inner != nil {
				dBatch = func(b *model.Batch) []model.Violation {
					t0 := time.Now()
					vs := inner(b)
					detectNs.Add(int64(time.Since(t0)))
					return vs
				}
			}
			if inner := dBlock; inner != nil {
				dBlock = func(us []model.Tuple, ordered bool) []model.Violation {
					t0 := time.Now()
					vs := inner(us, ordered)
					detectNs.Add(int64(time.Since(t0)))
					return vs
				}
			}
		}
		v, err := ex.vecViolations(pp, p, dBatch, dBlock)
		if err != nil {
			return err
		}
		violations = v
	} else {
		items, err := ex.items(pp, p)
		if err != nil {
			return err
		}
		detect := p.Detect
		if instrumented {
			inner := detect
			detect = func(it Item) []model.Violation {
				pairs.Add(1)
				t0 := time.Now()
				vs := inner(it)
				detectNs.Add(int64(time.Since(t0)))
				return vs
			}
		}
		violations = engine.FlatMap(items, func(it Item) []model.Violation { return detect(it) })
	}
	// No action here: Detect stays lazy so the enumeration, detection and
	// (below) fix generation fuse into a single per-partition stage. A
	// failure anywhere in the chain surfaces at the pipeline's collect.
	//
	// Dedup violations (BigDansing emits each violation once). OCJoin,
	// unique pairs and single-unit enumeration produce each candidate once
	// by construction, so only the both-orientation enumerations pay the
	// dedup shuffle.
	switch p.Impl {
	case IterOrderedPairs, IterCoBlockPairs, IterCustom:
		violations = engine.Distinct(violations, func(v model.Violation) model.ViolationKey { return v.MapKey() })
	}
	if p.GenFix != nil {
		genfix := p.GenFix
		if instrumented {
			inner := genfix
			genfix = func(v model.Violation) []model.Fix {
				t0 := time.Now()
				fs := inner(v)
				genfixNs.Add(int64(time.Since(t0)))
				return fs
			}
		}
		fixSets := engine.Map(violations, func(v model.Violation) model.FixSet {
			return model.FixSet{Violation: v, Fixes: genfix(v)}
		})
		sets, err := fixSets.Collect()
		if err != nil {
			return fmt.Errorf("core: detection pipeline %s failed: %w", p.RuleID, err)
		}
		fixes := 0
		for _, fs := range sets {
			out.Violations = append(out.Violations, fs.Violation)
			out.FixSets = append(out.FixSets, fs)
			fixes += len(fs.Fixes)
		}
		finishPipelineSpan(sp, instrumented, int64(len(sets)), int64(fixes), &detectNs, &genfixNs, &pairs)
		return nil
	}
	vs, err := violations.Collect()
	if err != nil {
		return fmt.Errorf("core: detection pipeline %s failed: %w", p.RuleID, err)
	}
	for _, v := range vs {
		out.Violations = append(out.Violations, v)
		out.FixSets = append(out.FixSets, model.FixSet{Violation: v})
	}
	finishPipelineSpan(sp, instrumented, int64(len(vs)), 0, &detectNs, &genfixNs, &pairs)
	return nil
}

// finishPipelineSpan stamps a pipeline span's summary attributes. The UDF
// timers and the pair count are only reported when they were actually
// measured.
func finishPipelineSpan(sp engine.Span, instrumented bool, violations, fixes int64, detectNs, genfixNs, pairs *atomic.Int64) {
	sp.Attr(engine.AttrViolations, violations)
	sp.Attr(engine.AttrFixes, fixes)
	if instrumented {
		sp.Attr(engine.AttrDetectNanos, detectNs.Load())
		sp.Attr(engine.AttrGenFixNanos, genfixNs.Load())
		sp.Attr(engine.AttrPairs, pairs.Load())
	}
}

// items produces the candidate items of a pipeline under its chosen
// physical Iterate implementation.
func (ex *sparkExec) items(pp *PhysicalPlan, p *PhysicalPipeline) (*engine.Dataset[Item], error) {
	// The CoBlock and custom-Iterate paths pull their own branch streams.
	if p.Impl == IterCoBlockPairs {
		if p.Broadcast {
			return ex.broadcastCoBlock(pp, p)
		}
		cg, err := ex.coGroupBranches(pp, p.Branches)
		if err != nil {
			return nil, err
		}
		return engine.FlatMap(cg, func(g engine.Pair[model.ValueKey, engine.CoGrouped[model.Tuple, model.Tuple]]) []Item {
			return PairsAcross([][]model.Tuple{g.Value.Left, g.Value.Right})
		}), nil
	}
	if p.Impl == IterCustom {
		return ex.iterateItems(pp, p.Iterate, p.Branches)
	}
	first, err := ex.branchStream(pp, p.Branches[0])
	if err != nil {
		return nil, err
	}
	switch p.Impl {
	case IterSingles:
		return engine.Map(first, Single), nil

	case IterOCJoin:
		pairs, err := join.OCJoin(first, p.OrderConds, p.NumParts)
		if err != nil {
			return nil, fmt.Errorf("core: OCJoin in %s: %w", p.RuleID, err)
		}
		return engine.Map(pairs, func(pr engine.PairOf[model.Tuple]) Item {
			return PairItem(pr.Left, pr.Right)
		}), nil

	case IterUniquePairs:
		if b := p.Branches[0].Block; b != nil {
			if p.Broadcast {
				return ex.broadcastPairs(first, b, true)
			}
			grouped := ex.blocks(first, b)
			return engine.FlatMap(grouped, func(g engine.Pair[model.ValueKey, []model.Tuple]) []Item {
				return PairsUnique([][]model.Tuple{g.Value})
			}), nil
		}
		pairs := join.UCrossProduct(first)
		return engine.Map(pairs, func(pr engine.PairOf[model.Tuple]) Item {
			return PairItem(pr.Left, pr.Right)
		}), nil

	case IterOrderedPairs:
		if b := p.Branches[0].Block; b != nil {
			if p.Broadcast {
				return ex.broadcastPairs(first, b, false)
			}
			grouped := ex.blocks(first, b)
			return engine.FlatMap(grouped, func(g engine.Pair[model.ValueKey, []model.Tuple]) []Item {
				return PairsOrdered([][]model.Tuple{g.Value})
			}), nil
		}
		pairs := join.CrossProduct(first)
		return engine.Map(pairs, func(pr engine.PairOf[model.Tuple]) Item {
			return PairItem(pr.Left, pr.Right)
		}), nil

	default:
		return nil, fmt.Errorf("core: pipeline %s: unknown iterate implementation", p.RuleID)
	}
}

// groupLocal collects a branch stream and groups it by its block key in
// first-seen order — the broadcast (collect-locally) alternative's grouping,
// deterministic without a shuffle stage.
func groupLocal(ts []model.Tuple, block BlockFunc) [][]model.Tuple {
	idx := make(map[model.ValueKey]int)
	var bags [][]model.Tuple
	for _, t := range ts {
		k := block(t).MapKey()
		i, ok := idx[k]
		if !ok {
			i = len(bags)
			idx[k] = i
			bags = append(bags, nil)
		}
		bags[i] = append(bags[i], t)
	}
	return bags
}

// broadcastPairs is the collect-locally variant of the blocked pair
// enumerations: the scoped stream is gathered onto the driver, grouped
// there, and the per-block pairs are parallelized back out. Chosen by the
// cost-based planner when the relation is small enough that shuffle-stage
// setup dominates.
func (ex *sparkExec) broadcastPairs(first *engine.Dataset[model.Tuple], block BlockFunc, unique bool) (*engine.Dataset[Item], error) {
	ts, err := first.Collect()
	if err != nil {
		return nil, err
	}
	var items []Item
	for _, bag := range groupLocal(ts, block) {
		if unique {
			items = append(items, PairsUnique([][]model.Tuple{bag})...)
		} else {
			items = append(items, PairsOrdered([][]model.Tuple{bag})...)
		}
	}
	return engine.Parallelize(ex.ctx, items, 0), nil
}

// broadcastCoBlock is the collect-locally variant of CoBlock: both branch
// streams are gathered, grouped by their keys, and paired across bags per
// shared key (left keys in first-seen order).
func (ex *sparkExec) broadcastCoBlock(pp *PhysicalPlan, p *PhysicalPipeline) (*engine.Dataset[Item], error) {
	if len(p.Branches) < 2 {
		return nil, fmt.Errorf("core: CoBlock needs two branches")
	}
	lb, rb := p.Branches[0].Block, p.Branches[1].Block
	if lb == nil || rb == nil {
		return nil, fmt.Errorf("core: CoBlock requires Block on both branches")
	}
	left, err := ex.branchStream(pp, p.Branches[0])
	if err != nil {
		return nil, err
	}
	right, err := ex.branchStream(pp, p.Branches[1])
	if err != nil {
		return nil, err
	}
	lts, err := left.Collect()
	if err != nil {
		return nil, err
	}
	rts, err := right.Collect()
	if err != nil {
		return nil, err
	}
	rbags := make(map[model.ValueKey][]model.Tuple)
	for _, t := range rts {
		k := rb(t).MapKey()
		rbags[k] = append(rbags[k], t)
	}
	type bagPair struct {
		l []model.Tuple
		r []model.Tuple
	}
	idx := make(map[model.ValueKey]int)
	var bags []bagPair
	for _, t := range lts {
		k := lb(t).MapKey()
		i, ok := idx[k]
		if !ok {
			i = len(bags)
			idx[k] = i
			bags = append(bags, bagPair{r: rbags[k]})
		}
		bags[i].l = append(bags[i].l, t)
	}
	var items []Item
	for _, bp := range bags {
		items = append(items, PairsAcross([][]model.Tuple{bp.l, bp.r})...)
	}
	return engine.Parallelize(ex.ctx, items, 0), nil
}

// coGroupBranches keys the first two branches and co-groups them.
func (ex *sparkExec) coGroupBranches(pp *PhysicalPlan, branches []Branch) (*engine.Dataset[engine.Pair[model.ValueKey, engine.CoGrouped[model.Tuple, model.Tuple]]], error) {
	if len(branches) < 2 {
		return nil, fmt.Errorf("core: CoBlock needs two branches")
	}
	left, err := ex.branchStream(pp, branches[0])
	if err != nil {
		return nil, err
	}
	right, err := ex.branchStream(pp, branches[1])
	if err != nil {
		return nil, err
	}
	lb, rb := branches[0].Block, branches[1].Block
	if lb == nil || rb == nil {
		return nil, fmt.Errorf("core: CoBlock requires Block on both branches")
	}
	lk := engine.KeyBy(left, func(t model.Tuple) model.ValueKey { return lb(t).MapKey() })
	rk := engine.KeyBy(right, func(t model.Tuple) model.ValueKey { return rb(t).MapKey() })
	cg := engine.CoGroup(lk, rk)
	if err := cg.Err(); err != nil {
		return nil, err
	}
	return cg, nil
}

// dedupeResult removes duplicate violations across pipelines while keeping
// FixSets aligned. Identity is the comparable ViolationKey, so deduping a
// result allocates nothing per violation.
func dedupeResult(r *DetectResult) {
	seen := make(map[model.ViolationKey]bool, len(r.FixSets))
	outV := r.Violations[:0]
	outF := r.FixSets[:0]
	for i, fs := range r.FixSets {
		k := fs.Violation.MapKey()
		if seen[k] {
			continue
		}
		seen[k] = true
		outV = append(outV, r.Violations[i])
		outF = append(outF, fs)
	}
	r.Violations = outV
	r.FixSets = outF
}

// compilePlan runs a logical planner and the physical Planner under one
// plan span, so a tracer sees how long logical->physical compilation took
// and what the planner decided (pipeline count, consolidated shared scans).
// A nil Planner plans by rule shape (NewPlanner()).
func compilePlan(ctx *engine.Context, pl *Planner, plan func() (*LogicalPlan, error)) (*PhysicalPlan, error) {
	sp := ctx.Observer().BeginSpan(nil, "compile", engine.SpanPlan)
	defer sp.End()
	lp, err := plan()
	if err != nil {
		return nil, err
	}
	if pl == nil {
		pl = NewPlanner()
	}
	pp, err := pl.Plan(lp)
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
	return DetectRuleWith(ctx, nil, r, rel)
}

// DetectRuleWith is DetectRule with an explicit Planner (nil plans by rule
// shape).
func DetectRuleWith(ctx *engine.Context, pl *Planner, r *Rule, rel *model.Relation) (*DetectResult, error) {
	pp, err := compilePlan(ctx, pl, func() (*LogicalPlan, error) { return PlanRule(r, rel) })
	if err != nil {
		return nil, err
	}
	return RunPlanSpark(ctx, pp)
}

// DetectRules plans all rules over one relation as a single consolidated
// plan and runs it.
func DetectRules(ctx *engine.Context, rs []*Rule, rel *model.Relation) (*DetectResult, error) {
	return DetectRulesWith(ctx, nil, rs, rel)
}

// DetectRulesWith is DetectRules with an explicit Planner (nil plans by
// rule shape).
func DetectRulesWith(ctx *engine.Context, pl *Planner, rs []*Rule, rel *model.Relation) (*DetectResult, error) {
	pp, err := compilePlan(ctx, pl, func() (*LogicalPlan, error) { return PlanRules(rs, rel) })
	if err != nil {
		return nil, err
	}
	return RunPlanSpark(ctx, pp)
}

// RunJobSpark validates, plans and executes a job.
func RunJobSpark(ctx *engine.Context, j *Job) (*DetectResult, error) {
	return RunJobSparkWith(ctx, nil, j)
}

// RunJobSparkWith is RunJobSpark with an explicit Planner (nil plans by
// rule shape).
func RunJobSparkWith(ctx *engine.Context, pl *Planner, j *Job) (*DetectResult, error) {
	pp, err := compilePlan(ctx, pl, func() (*LogicalPlan, error) { return BuildPlan(j) })
	if err != nil {
		return nil, err
	}
	return RunPlanSpark(ctx, pp)
}
