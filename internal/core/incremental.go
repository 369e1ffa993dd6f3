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
// Each incremental rule keeps a block-membership index (block → member
// IDs), updated from the changed IDs alone, and the caller supplies its own
// live tuple ID → position index to every pass. A pass runs the rule's
// block detector straight on each touched block's members — no plan, no
// shuffle — so no per-pass path touches a tuple outside the touched blocks:
// a pass costs the blocks the batch touches, not the relation.
//
// Rules qualify for incremental maintenance when they are blocked,
// single-branch, scope-free and planner-enumerated (unique or ordered
// pairs), or unary; other rules (OCJoin, CoBlock, custom Iterate, scoped)
// fall back to bounded re-detection: their cached results are kept until a
// change marks them stale, and they re-run (in full, over the current
// relation) at most once per Detect — never during Observe.
type IncrementalDetector struct {
	ctx   *engine.Context
	rules []*Rule
	// planner, when non-nil, plans the full passes (see SetPlanner); nil
	// plans by rule shape.
	planner *Planner

	// state per rule index (nil for non-incrementalizable rules).
	state []*ruleState
	// full holds the latest results of non-incremental rules; fullStale
	// marks them out of date (changes observed since they last ran).
	full      []model.FixSet
	fullStale bool
	// primed reports whether the first full pass ran.
	primed bool
}

// blockID is the comparable identity of one block in the incremental
// cache: the Block value's MapKey for blocked rules, or the tuple ID for
// unary rules (each tuple is its own block). Keeping it a struct avoids the
// per-tuple "u%d" / key-string formatting of the string-keyed cache.
type blockID struct {
	unary bool
	tuple int64
	key   model.ValueKey
}

// block is one blocking key's share of a rule's state.
type block struct {
	key     blockID
	rank    int            // first-seen order: the order assemble emits blocks in
	members []int64        // IDs of the tuples currently in the block
	sets    []model.FixSet // the block's cached fix sets
	pass    int            // the last pass that touched the block
}

type ruleState struct {
	// keyOf maps each tuple ID to its current block.
	keyOf map[int64]blockID
	// blocks is the block-membership index: every block with members or
	// cached fix sets.
	blocks map[blockID]*block
	// violating holds the blocks with cached fix sets.
	violating map[blockID]*block
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
}

// at returns block k, creating it (ranked last) when it is new.
func (st *ruleState) at(k blockID) *block {
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

// NewIncrementalDetector validates the rules and prepares state.
func NewIncrementalDetector(ctx *engine.Context, rules []*Rule) (*IncrementalDetector, error) {
	for _, r := range rules {
		if err := r.Validate(); err != nil {
			return nil, err
		}
	}
	return &IncrementalDetector{ctx: ctx, rules: rules, state: make([]*ruleState, len(rules))}, nil
}

// SetPlanner installs the physical Planner the detector's full passes use
// (nil plans by rule shape): the priming pass and the re-detections of
// non-incrementalizable rules. Block-local passes run no plan. Long-lived
// sessions pass their feedback-fed planner here so every full pass re-plans
// on measured costs.
func (d *IncrementalDetector) SetPlanner(pl *Planner) { d.planner = pl }

// incrementalizable reports whether a rule supports block-incremental
// maintenance.
func incrementalizable(r *Rule) bool {
	if r.Unary {
		return true
	}
	return r.Block != nil && r.BlockRight == nil && r.Iterate == nil &&
		r.Scope == nil && len(r.OrderConds) == 0
}

// Incrementalizable reports whether a rule supports block-incremental
// maintenance. Callers (cleanse.Open) use it to decide whether a rule set
// can stream at all or must fall back to full re-detection.
func Incrementalizable(r *Rule) bool { return incrementalizable(r) }

// NumIncrementalizable counts the rules of rs that support block-incremental
// maintenance.
func NumIncrementalizable(rs []*Rule) int {
	n := 0
	for _, r := range rs {
		if incrementalizable(r) {
			n++
		}
	}
	return n
}

// Reset drops all cached state: the next Detect (or Observe) runs a full
// pass. It is the one way to force a full pass, and the fallback for
// callers whose relation changed in ways they cannot enumerate (bulk
// rewrites, tuple removals they did not track).
func (d *IncrementalDetector) Reset() {
	clear(d.state)
	d.full = d.full[:0]
	d.fullStale = false
	d.primed = false
}

// Observe folds changed (updated or appended) tuples into the incremental
// caches without producing a result: incrementalizable rules re-detect only
// the affected blocks now, while non-incrementalizable rules are merely
// marked stale — their bounded full re-detection is deferred to the next
// Detect. A streaming caller ingesting many batches between flushes pays
// the per-block cost per batch but the full-rule cost once per flush. idx
// is the caller's live tuple ID → position index of rel.
func (d *IncrementalDetector) Observe(rel *model.Relation, idx map[int64]int, changed []int64) error {
	if !d.primed {
		return d.prime(rel, true)
	}
	if len(changed) == 0 {
		return nil
	}
	d.fullStale = true
	return d.incrementalPasses(rel, idx, changed)
}

// Detect runs a pass. changed lists the tuple IDs updated or appended since
// the last pass (empty reuses every cache that is not stale); idx is the
// caller's live tuple ID → position index of rel. Only an unprimed detector
// (a first call, or one after Reset) runs a full pass. The returned result
// is a fresh snapshot — callers may retain it.
func (d *IncrementalDetector) Detect(rel *model.Relation, idx map[int64]int, changed []int64) (*DetectResult, error) {
	if !d.primed {
		if err := d.prime(rel, false); err != nil {
			return nil, err
		}
		return d.assemble(), nil
	}
	if len(changed) > 0 {
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
	return d.assemble(), nil
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

// refreshFull re-runs every non-incrementalizable rule over the current
// relation and clears the stale mark. This is the bounded fallback: at most
// one full re-detection per rule per Detect, and none at all while the
// relation is unchanged.
func (d *IncrementalDetector) refreshFull(rel *model.Relation) error {
	d.full = d.full[:0]
	for _, r := range d.rules {
		if incrementalizable(r) {
			continue
		}
		sub, err := DetectRuleWith(d.ctx, d.planner, r, rel)
		if err != nil {
			return err
		}
		d.full = append(d.full, sub.FixSets...)
	}
	d.fullStale = false
	return nil
}

// prime runs the first full pass over the incrementalizable rules and,
// unless deferFull is set, the non-incrementalizable ones too (deferFull
// leaves them stale so Observe never pays for a full-rule run). One scan of
// the relation per rule fills both the tuple → block map and the
// block-membership index.
func (d *IncrementalDetector) prime(rel *model.Relation, deferFull bool) error {
	if !deferFull {
		if err := d.refreshFull(rel); err != nil {
			return err
		}
	} else {
		d.full = d.full[:0]
		d.fullStale = true
	}
	for i, r := range d.rules {
		if !incrementalizable(r) {
			continue
		}
		st := &ruleState{
			keyOf:     make(map[int64]blockID, rel.Len()),
			blocks:    map[blockID]*block{},
			violating: map[blockID]*block{},
		}
		for _, t := range rel.Tuples {
			k := d.blockKey(r, t)
			st.keyOf[t.ID] = k
			b := st.at(k)
			b.members = append(b.members, t.ID)
		}
		sub, err := DetectRuleWith(d.ctx, d.planner, r, rel)
		if err != nil {
			return err
		}
		for _, fs := range sub.FixSets {
			d.cache(st, fs)
		}
		d.state[i] = st
	}
	d.primed = true
	return nil
}

// blockKey computes a tuple's blocking identity (the tuple ID for unary
// rules, which are keyed per tuple).
func (d *IncrementalDetector) blockKey(r *Rule, t model.Tuple) blockID {
	if r.Unary {
		return blockID{unary: true, tuple: t.ID}
	}
	return blockID{key: r.Block(t).MapKey()}
}

// cache files a fix set under the block of its first cell.
func (d *IncrementalDetector) cache(st *ruleState, fs model.FixSet) {
	var k blockID
	if len(fs.Violation.Cells) > 0 {
		k = st.keyOf[fs.Violation.Cells[0].TupleID]
	}
	b := st.at(k)
	b.sets = append(b.sets, fs)
	st.violating[k] = b
}

// incrementalPass refreshes one rule's state for the changed tuples: it
// moves each changed tuple to its current block in the membership index,
// then re-detects the blocks it left and joined, each over its own members
// in relation order, so each block's fix sets come out as a full pass lists
// them.
func (d *IncrementalDetector) incrementalPass(i int, r *Rule, rel *model.Relation, idx map[int64]int, changed []int64) error {
	st := d.state[i]
	if st == nil {
		return fmt.Errorf("core: incremental state missing for rule %s", r.ID)
	}

	// Touched blocks: old block and new block of every changed tuple.
	st.pass++
	st.touched = st.touched[:0]
	for _, id := range changed {
		if old, ok := st.keyOf[id]; ok {
			b := st.blocks[old]
			b.leave(id)
			st.touch(b)
			delete(st.keyOf, id)
		}
		p, ok := idx[id]
		if !ok {
			continue // tuple removed
		}
		k := d.blockKey(r, rel.Tuples[p])
		st.keyOf[id] = k
		b := st.at(k)
		b.members = append(b.members, id)
		st.touch(b)
	}
	if len(st.touched) == 0 {
		return nil
	}

	// Gather each touched block's units, in relation order, into one buffer.
	st.units, st.ends = st.units[:0], st.ends[:0]
	for _, b := range st.touched {
		st.pos = st.pos[:0]
		for _, id := range b.members {
			if p, ok := idx[id]; ok {
				st.pos = append(st.pos, p)
			}
		}
		slices.Sort(st.pos)
		for _, p := range st.pos {
			if r.Unary && r.Scope != nil {
				st.units = append(st.units, r.Scope(rel.Tuples[p])...)
			} else {
				st.units = append(st.units, rel.Tuples[p])
			}
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
	lists, err := d.detectBlocks(r, st.spans)
	// The buffers outlive the pass; do not pin old tuples.
	clear(st.units)
	clear(st.spans)
	if err != nil {
		return err
	}
	for j, b := range st.touched {
		b.sets = lists[j]
		delete(st.violating, b.key)
		if len(b.sets) > 0 {
			st.violating[b.key] = b
		} else if len(b.members) == 0 {
			delete(st.blocks, b.key)
		}
	}
	return nil
}

// detectBlocks runs rule r's block detector over each block's units and
// GenFix over what it finds, returning one fix-set list per block. The
// detector is the one a full pass runs per group: the rule's block kernel,
// else the planner's pair enumeration (ordered unless the rule is
// Symmetric), or Detect per unit for a unary rule. The blocks are spread
// over the context's parallelism by one narrow stage with no shuffle, which
// reports under one pipeline span like a full pass does.
func (d *IncrementalDetector) detectBlocks(r *Rule, blocks [][]model.Tuple) ([][]model.FixSet, error) {
	sp := d.ctx.Observer().BeginSpan(nil, r.ID, engine.SpanPipeline)
	defer sp.End()
	m := &udfMeter{on: d.ctx.Instrumented()}
	var det func([]model.Tuple) []model.Violation
	if r.Unary {
		det = metered(m, singlesDetector(r.Detect))
	} else {
		det = metered(m, blockDetector(r.DetectBlock, r.Detect, !r.Symmetric))
	}
	genFix := m.genFix(r.GenFix)
	lists, err := engine.Map(engine.Parallelize(d.ctx, blocks, 0), func(us []model.Tuple) []model.FixSet {
		return genFix(det(us))
	}).Collect()
	if err != nil {
		return nil, fmt.Errorf("core: incremental detection of %s failed: %w", r.ID, err)
	}
	m.finish(sp, lists)
	return lists, nil
}

// assemble snapshots the cached state into a result: rules in index order,
// each rule's blocks in first-seen order, then the non-incremental rules'
// results — the same order on every run.
func (d *IncrementalDetector) assemble() *DetectResult {
	var lists [][]model.FixSet
	for _, st := range d.state {
		if st == nil {
			continue
		}
		bs := make([]*block, 0, len(st.violating))
		for _, b := range st.violating {
			bs = append(bs, b)
		}
		slices.SortFunc(bs, func(a, b *block) int { return cmp.Compare(a.rank, b.rank) })
		for _, b := range bs {
			lists = append(lists, b.sets)
		}
	}
	return assemble(append(lists, d.full))
}
