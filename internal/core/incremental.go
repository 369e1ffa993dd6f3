package core

import (
	"cmp"
	"fmt"
	"slices"

	"bigdansing/internal/engine"
	"bigdansing/internal/model"
)

// IncrementalDetector maintains detection state across updates: after a
// full first pass, later passes re-detect only the blocks containing
// changed tuples (under both their old and new blocking keys), splicing
// fresh violations over the cached ones. The iterative detect-repair loop
// benefits directly — each round only touches the blocks its repairs
// changed — in the spirit of incremental inconsistency detection [14]. The
// state survives across calls and across appends, so a long-lived caller (a
// cleanse.Session) can keep feeding it batches of new tuples: a changed ID
// with no cached blocking key is treated as an append and only its target
// block is re-detected.
//
// The first pass (the prime) is itself a full pass: per incremental rule,
// one GroupBy(Block) stage, the shuffle a full pass runs, on the rule's own
// key. Its groups feed the per-block detector and become the rule's
// block-membership index (block → member IDs). Later passes update that
// index from the changed IDs alone, with the caller's live tuple ID →
// position index, and run the block detector straight on each touched
// block's members — no plan, no shuffle — so a pass costs the blocks the
// batch touches, not the relation.
//
// Rules qualify for incremental maintenance when they are blocked,
// single-branch, scope-free and planner-enumerated (unique or ordered
// pairs), or unary; the other rules (OCJoin, CoBlock, custom Iterate,
// scoped) fall back to bounded re-detection: their cached result is kept
// until a change marks it stale, and they re-run together, in one
// consolidated plan over the current relation, at most once per Detect —
// never during Observe.
type IncrementalDetector struct {
	ctx   *engine.Context
	rules []*Rule
	// fallback lists the rules that are not incrementalizable, in index
	// order.
	fallback []*Rule

	// state per rule index (nil for fallback rules).
	state []*ruleState
	// full holds the fallback rules' latest result; fullStale marks it out
	// of date (changes observed since it ran).
	full      *DetectResult
	fullStale bool
	// primed reports whether the first pass ran.
	primed bool
}

// block is one blocking key's share of a rule's state. A unary rule's
// blocks are its tuples, each keyed by its ID.
type block struct {
	key     model.ValueKey
	rank    int     // first-seen order: the order result emits blocks in
	members []int64 // IDs of the tuples currently in the block
	out     Output  // the block's cached violations and fixes
	pass    int     // the last pass that touched the block
}

type ruleState struct {
	// unique reports that the rule's blocks repeat no violation (see
	// kernelUnique).
	unique bool
	// keyOf maps each tuple ID to its current block.
	keyOf map[int64]*block
	// blocks is the block-membership index: every block with members or
	// cached violations.
	blocks map[model.ValueKey]*block
	// violating holds the blocks with cached violations.
	violating map[*block]struct{}
	// ranked counts the blocks created so far (the next first-seen rank).
	ranked int

	// pass numbers the incremental passes; touched lists the blocks the
	// current one touched, and units, pos, ends and spans are its gather
	// buffers. All six are reused from pass to pass.
	pass    int
	touched []*block
	units   []model.Tuple
	pos     []int
	ends    []int
	spans   [][]model.Tuple
	// ranks sorts the violating blocks and outs gathers their outputs for
	// view, both reused from call to call: the view holds the outputs, and
	// its result windows on their slabs.
	ranks []*block
	outs  []Output
}

// at returns block k, creating it (ranked last) when it is new.
func (st *ruleState) at(k model.ValueKey) *block {
	b := st.blocks[k]
	if b == nil {
		b = &block{key: k, rank: st.ranked}
		st.ranked++
		st.blocks[k] = b
	}
	return b
}

// touch lists block b among the current pass's touched blocks, once.
func (st *ruleState) touch(b *block) {
	if b.pass != st.pass {
		b.pass = st.pass
		st.touched = append(st.touched, b)
	}
}

// leave removes tuple id from block b's members.
func (b *block) leave(id int64) {
	if i := slices.Index(b.members, id); i >= 0 {
		b.members[i] = b.members[len(b.members)-1]
		b.members = b.members[:len(b.members)-1]
	}
}

// blockKey is a tuple's block under rule r: its Block value's MapKey, or
// its own ID for a unary rule.
func blockKey(r *Rule, t model.Tuple) model.ValueKey {
	if r.Unary {
		return model.I(t.ID).MapKey()
	}
	return r.Block(t).MapKey()
}

// NewIncrementalDetector validates the rules and prepares state.
func NewIncrementalDetector(ctx *engine.Context, rules []*Rule) (*IncrementalDetector, error) {
	d := &IncrementalDetector{ctx: ctx, rules: rules, state: make([]*ruleState, len(rules)), full: &DetectResult{}}
	for _, r := range rules {
		if err := r.Validate(); err != nil {
			return nil, err
		}
		if !incrementalizable(r) {
			d.fallback = append(d.fallback, r)
		}
	}
	return d, nil
}

// incrementalizable reports whether a rule supports block-incremental
// maintenance.
func incrementalizable(r *Rule) bool {
	if r.Unary {
		return true
	}
	return r.Block != nil && r.BlockRight == nil && r.Iterate == nil &&
		r.Scope == nil && len(r.OrderConds) == 0
}

// Observe folds changed (updated or appended) tuples into the incremental
// caches without producing a result: incrementalizable rules re-detect only
// the affected blocks now, while the fallback rules are merely marked stale
// — their bounded full re-detection is deferred to the next Detect. A
// streaming caller ingesting many batches between flushes pays the
// per-block cost per batch but the fallback cost once per flush. idx is the
// caller's live tuple ID → position index of rel.
func (d *IncrementalDetector) Observe(rel *model.Relation, idx map[int64]int, changed []int64) error {
	if !d.primed {
		return d.prime(rel)
	}
	if len(changed) == 0 {
		return nil
	}
	d.fullStale = true
	return d.incrementalPasses(rel, idx, changed)
}

// Detect runs a pass and returns its result: View's Result. changed lists
// the tuple IDs updated or appended since the last pass (empty reuses every
// cache that is not stale); idx is the caller's live tuple ID → position
// index of rel. Only the first call (or Observe) primes the detector with a
// full pass. The result is the caller's to keep but not to modify: with no
// incrementalizable rule it is the fallback pass's own result, returned
// again until a change re-runs it.
func (d *IncrementalDetector) Detect(rel *model.Relation, idx map[int64]int, changed []int64) (*DetectResult, error) {
	v, err := d.View(rel, idx, changed)
	if err != nil {
		return nil, err
	}
	return v.Result(), nil
}

// View runs a pass as Detect does and returns the detector's state as it
// holds it, without assembling a result. The view reads the detector's
// caches: it is valid until the next View, Detect or Observe.
func (d *IncrementalDetector) View(rel *model.Relation, idx map[int64]int, changed []int64) (*DetectView, error) {
	if !d.primed {
		if err := d.prime(rel); err != nil {
			return nil, err
		}
	} else if len(changed) > 0 {
		d.fullStale = true
		if err := d.incrementalPasses(rel, idx, changed); err != nil {
			return nil, err
		}
	}
	if d.fullStale {
		if err := d.refreshFull(rel); err != nil {
			return nil, err
		}
	}
	return d.view(), nil
}

// incrementalPasses runs incrementalPass for every incrementalizable rule.
func (d *IncrementalDetector) incrementalPasses(rel *model.Relation, idx map[int64]int, changed []int64) error {
	for i, r := range d.rules {
		if !incrementalizable(r) {
			continue
		}
		if err := d.incrementalPass(i, r, rel, idx, changed); err != nil {
			return err
		}
	}
	return nil
}

// refreshFull re-runs the fallback rules over the current relation as one
// consolidated plan (Algorithm 1's shared scan) and clears the stale mark.
// This is the bounded fallback: at most one full re-detection per Detect,
// and none at all while the relation is unchanged.
func (d *IncrementalDetector) refreshFull(rel *model.Relation) error {
	if len(d.fallback) > 0 {
		res, err := DetectRules(d.ctx, d.fallback, rel)
		if err != nil {
			return err
		}
		d.full = res
	}
	d.fullStale = false
	return nil
}

// prime runs the first pass over the incrementalizable rules and marks the
// fallback rules stale, so Observe never pays for them and Detect runs them
// once.
func (d *IncrementalDetector) prime(rel *model.Relation) error {
	for i, r := range d.rules {
		if !incrementalizable(r) {
			continue
		}
		st, err := d.primeRule(r, rel)
		if err != nil {
			return err
		}
		d.state[i] = st
	}
	d.fullStale = true
	d.primed = true
	return nil
}

// primeRule runs rule r's full pass and builds its state from the pass's
// own groups: the relation grouped by blockKey in one GroupBy stage, or, for
// a unary rule, each tuple as its own group. Each group runs the per-block
// body of an incremental pass and becomes one block, ranked in group output
// order, so the first result lists fix sets as a full pass does. Tuples
// the GroupBy moves are projected onto the rule's declared reads, as in a
// full pass.
func (d *IncrementalDetector) primeRule(r *Rule, rel *model.Relation) (*ruleState, error) {
	scan := engine.Parallelize(d.ctx, rel.Tuples, 0)
	key := func(t model.Tuple) model.ValueKey { return blockKey(r, t) }
	var groups *engine.Dataset[engine.Pair[model.ValueKey, []model.Tuple]]
	if r.Unary {
		groups = engine.Map(scan, func(t model.Tuple) engine.Pair[model.ValueKey, []model.Tuple] {
			return engine.KV(key(t), []model.Tuple{t})
		})
	} else {
		groups = engine.GroupBy(scan.MovedAs(projection(r.Reads)), key)
	}
	gs, err := groups.Collect()
	if err != nil {
		return nil, fmt.Errorf("core: grouping %s failed: %w", r.ID, err)
	}
	outs, err := d.detectBlocks(r, engine.Map(groups, func(g engine.Pair[model.ValueKey, []model.Tuple]) []model.Tuple { return g.Value }))
	if err != nil {
		return nil, err
	}
	st := &ruleState{
		unique:    !r.Unary && kernelUnique(r.DetectBlock, !r.Symmetric, r.Scope == nil),
		keyOf:     make(map[int64]*block, rel.Len()),
		blocks:    make(map[model.ValueKey]*block, len(gs)),
		violating: map[*block]struct{}{},
		ranked:    len(gs),
	}
	// One backing array holds every block's members; each block's slice is
	// capped, so a later append moves only that block.
	ids := make([]int64, 0, rel.Len())
	for i, g := range gs {
		lo := len(ids)
		for _, t := range g.Value {
			ids = append(ids, t.ID)
		}
		b := &block{key: g.Key, rank: i, members: ids[lo:len(ids):len(ids)], out: outs.next()}
		for _, id := range b.members {
			st.keyOf[id] = b
		}
		st.blocks[g.Key] = b
		if len(b.out.ends) > 0 {
			st.violating[b] = struct{}{}
		}
	}
	return st, nil
}

// incrementalPass refreshes one rule's state for the changed tuples: it
// moves each changed tuple to its current block in the membership index,
// then re-detects the blocks it left and joined, each over its own members
// in relation order, so each block's violations come out as a full pass
// lists them.
func (d *IncrementalDetector) incrementalPass(i int, r *Rule, rel *model.Relation, idx map[int64]int, changed []int64) error {
	st := d.state[i]
	if st == nil {
		return fmt.Errorf("core: incremental state missing for rule %s", r.ID)
	}

	// Touched blocks: old block and new block of every changed tuple.
	st.pass++
	st.touched = st.touched[:0]
	for _, id := range changed {
		if b := st.keyOf[id]; b != nil {
			b.leave(id)
			st.touch(b)
		}
		p, ok := idx[id]
		if !ok {
			delete(st.keyOf, id) // tuple removed
			continue
		}
		b := st.at(blockKey(r, rel.Tuples[p]))
		b.members = append(b.members, id)
		st.keyOf[id] = b
		st.touch(b)
	}
	if len(st.touched) == 0 {
		return nil
	}

	// Gather each touched block's members, in relation order, into one
	// buffer, sized once for all of them.
	members := 0
	for _, b := range st.touched {
		members += len(b.members)
	}
	st.units, st.ends = slices.Grow(st.units[:0], members), st.ends[:0]
	for _, b := range st.touched {
		st.pos = st.pos[:0]
		for _, id := range b.members {
			if p, ok := idx[id]; ok {
				st.pos = append(st.pos, p)
			}
		}
		slices.Sort(st.pos)
		for _, p := range st.pos {
			st.units = append(st.units, rel.Tuples[p])
		}
		st.ends = append(st.ends, len(st.units))
	}
	// Slice the spans only now: appending may have moved the buffer.
	st.spans = st.spans[:0]
	lo := 0
	for _, hi := range st.ends {
		st.spans = append(st.spans, st.units[lo:hi:hi])
		lo = hi
	}
	outs, err := d.detectBlocks(r, engine.Parallelize(d.ctx, st.spans, 0))
	// The buffers outlive the pass; do not pin old tuples.
	clear(st.units)
	clear(st.spans)
	if err != nil {
		return err
	}
	for _, b := range st.touched {
		b.out = outs.next()
		if len(b.out.ends) > 0 {
			st.violating[b] = struct{}{}
			continue
		}
		delete(st.violating, b)
		if len(b.members) == 0 {
			delete(st.blocks, b.key)
		}
	}
	return nil
}

// detectBlocks runs rule r's block detector over each block's tuples and
// GenFix over the violations it emits, giving one output per block, in the
// blocks' order, read where the stage left them. The
// detector is the one a full pass runs per group: the rule's block kernel,
// else the planner's pair enumeration (ordered unless the rule is
// Symmetric), or Detect per unit for a unary rule (after its Scope, if it
// has one). The blocks run as one narrow stage over their partitions,
// reporting under one pipeline span like a full pass does.
func (d *IncrementalDetector) detectBlocks(r *Rule, blocks *engine.Dataset[[]model.Tuple]) (*blockOutputs, error) {
	sp := d.ctx.Observer().BeginSpan(nil, r.ID, engine.SpanPipeline)
	defer sp.End()
	m := &udfMeter{on: d.ctx.Instrumented(), genfix: r.GenFix}
	det := blockDetector(r.DetectBlock, r.Detect, !r.Symmetric)
	if r.Unary {
		det = func(ts []model.Tuple, o *Output) int64 { return detectSingles(r.Detect, ts, o) }
	}
	scope := r.Scope // only a unary rule is incrementalizable with one
	outs := engine.Map(blocks, func(ts []model.Tuple) Output {
		if scope != nil {
			var units []model.Tuple
			for _, t := range ts {
				units = append(units, scope(t)...)
			}
			ts = units
		}
		return m.genFix(m.detect(func(o *Output) int64 { return det(ts, o) }))
	})
	if err := outs.Err(); err != nil {
		return nil, fmt.Errorf("core: incremental detection of %s failed: %w", r.ID, err)
	}
	bo := &blockOutputs{parts: make([][]Output, outs.NumPartitions())}
	for i := range bo.parts {
		bo.parts[i] = outs.Partition(i)
	}
	m.finish(sp, detected{parts: bo.parts})
	return bo, nil
}

// blockOutputs hands out detectBlocks' outputs in order.
type blockOutputs struct{ parts [][]Output }

// next is the next block's output.
func (bo *blockOutputs) next() Output {
	for len(bo.parts[0]) == 0 {
		bo.parts = bo.parts[1:]
	}
	o := bo.parts[0][0]
	bo.parts[0] = bo.parts[0][1:]
	return o
}

// view snapshots the state: the incremental rules in index order, each
// rule's violating blocks in first-seen order, then the fallback rules'
// result — the same order on every run. Each rule is one source of the
// hand-off, and the fallback result another.
func (d *IncrementalDetector) view() *DetectView {
	v := &DetectView{full: d.full}
	if len(d.fallback) == len(d.rules) {
		v.res = d.full
		return v
	}
	live, only := 0, -1
	for _, st := range d.state {
		if st == nil {
			continue
		}
		st.ranks = slices.Grow(st.ranks[:0], len(st.violating))
		for b := range st.violating {
			st.ranks = append(st.ranks, b)
		}
		slices.SortFunc(st.ranks, func(a, b *block) int { return cmp.Compare(a.rank, b.rank) })
		clear(st.outs) // do not pin the slabs of blocks that stopped violating
		st.outs = slices.Grow(st.outs[:0], len(st.ranks))
		for _, b := range st.ranks {
			st.outs = append(st.outs, b.out)
		}
		clear(st.ranks) // nor the blocks themselves
		if len(st.outs) > 0 {
			live, only = live+1, len(v.srcs)
		}
		v.srcs = append(v.srcs, detected{parts: [][]Output{st.outs}, unique: st.unique})
	}
	if len(d.full.FixSets) > 0 {
		live++
	}
	if live == 1 && only >= 0 && v.srcs[only].unique {
		v.blocks = v.srcs[only].parts[0]
	}
	return v
}

// DetectView is a pass's result as the detector holds it: per incremental
// rule, the violating blocks' outputs in first-seen order, and the fallback
// rules' result. Result assembles the flat result from them on request.
//
// When one source holds every violation and repeats none by construction
// (the case in which assemble copies it without a seen-set), that source is
// one blocked, scope-free rule, and the view is by block: a tuple lies in
// one block and a fix names cells of its violation's tuples, so no cell is
// touched by fix sets of two blocks, and repair may find the components
// block by block (repair.RepairBlocks reads NumBlocks and AppendBlock).
//
// A view reads the detector's caches: it is valid until the detector's next
// View, Detect or Observe.
type DetectView struct {
	srcs   []detected
	full   *DetectResult
	blocks []Output // the violating blocks of the one live source, when by block
	res    *DetectResult
}

// Result is the flat hand-off of the view's violations, assembled (and
// deduplicated across sources) on the first call.
func (v *DetectView) Result() *DetectResult {
	if v.res == nil {
		v.res = assemble(append(v.srcs, detected{lists: [][]model.FixSet{v.full.FixSets}}))
	}
	return v.res
}

// ByBlock reports whether the view is by block: one blocked rule that
// repeats no violation holds them all.
func (v *DetectView) ByBlock() bool { return v.blocks != nil }

// NumViolations is the number of violations Result lists, counted without
// assembling it when the view is by block.
func (v *DetectView) NumViolations() int {
	if v.blocks == nil {
		return len(v.Result().Violations)
	}
	n := 0
	for i := range v.blocks {
		n += len(v.blocks[i].ends)
	}
	return n
}

// NumBlocks is the number of violating blocks of a view by block (0
// otherwise).
func (v *DetectView) NumBlocks() int { return len(v.blocks) }

// AppendBlock appends the fix sets of violating block i, in the order
// Result lists them, to dst; their violations and fixes are windows on the
// detector's slabs.
func (v *DetectView) AppendBlock(dst []model.FixSet, i int) []model.FixSet {
	o := &v.blocks[i]
	for j := range o.ends {
		dst = append(dst, o.fixSet(j))
	}
	return dst
}
