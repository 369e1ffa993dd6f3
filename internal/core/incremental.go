package core

import (
	"fmt"

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
// Rules qualify for incremental maintenance when they are blocked,
// single-branch, scope-free and planner-enumerated (unique or ordered
// pairs), or unary; other rules (OCJoin, CoBlock, custom Iterate, scoped)
// fall back to bounded re-detection: their cached results are kept until a
// change marks them stale, and they re-run (in full, over the current
// relation) at most once per Detect — never during Observe.
type IncrementalDetector struct {
	ctx   *engine.Context
	rules []*Rule
	// planner, when non-nil, plans the full and block-local re-detections
	// (see SetPlanner); nil plans by rule shape.
	planner *Planner

	// state per incremental rule index.
	state map[int]*ruleState
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

type ruleState struct {
	// keyOf is the tuple ID -> blocking key map of the last pass.
	keyOf map[int64]blockID
	// byBlock groups the rule's fix sets by blocking key.
	byBlock map[blockID][]model.FixSet
}

// NewIncrementalDetector validates the rules and prepares state.
func NewIncrementalDetector(ctx *engine.Context, rules []*Rule) (*IncrementalDetector, error) {
	for _, r := range rules {
		if err := r.Validate(); err != nil {
			return nil, err
		}
	}
	return &IncrementalDetector{ctx: ctx, rules: rules, state: map[int]*ruleState{}}, nil
}

// SetPlanner installs the physical Planner the detector's re-detections
// use (nil plans by rule shape). Long-lived sessions pass
// their feedback-fed planner here so every pass re-plans on measured costs.
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
// pass. It is the fallback path for callers whose relation changed in ways
// they cannot enumerate (bulk rewrites, tuple removals they did not track).
func (d *IncrementalDetector) Reset() {
	d.state = map[int]*ruleState{}
	d.full = d.full[:0]
	d.fullStale = false
	d.primed = false
}

// Primed reports whether the first full pass has run.
func (d *IncrementalDetector) Primed() bool { return d.primed }

// Observe folds changed (updated or appended) tuples into the incremental
// caches without producing a result: incrementalizable rules re-detect only
// the affected blocks now, while non-incrementalizable rules are merely
// marked stale — their bounded full re-detection is deferred to the next
// Detect. A streaming caller ingesting many batches between flushes pays
// the per-block cost per batch but the full-rule cost once per flush.
func (d *IncrementalDetector) Observe(rel *model.Relation, changed []int64) error {
	if !d.primed {
		return d.prime(rel, true)
	}
	if len(changed) == 0 {
		return nil
	}
	d.fullStale = true
	for i, r := range d.rules {
		if !incrementalizable(r) {
			continue
		}
		if err := d.incrementalPass(i, r, rel, changed); err != nil {
			return err
		}
	}
	return nil
}

// Detect runs a pass. changed lists the tuple IDs updated since the last
// pass; nil (or a first call) forces a full pass, while an empty non-nil
// slice reuses every cache that is not stale. The returned result is a
// fresh snapshot — callers may retain it.
func (d *IncrementalDetector) Detect(rel *model.Relation, changed []int64) (*DetectResult, error) {
	if !d.primed || changed == nil {
		return d.fullPass(rel)
	}
	if len(changed) > 0 {
		d.fullStale = true
	}
	for i, r := range d.rules {
		if incrementalizable(r) {
			if len(changed) == 0 {
				continue
			}
			if err := d.incrementalPass(i, r, rel, changed); err != nil {
				return nil, err
			}
		}
	}
	if d.fullStale {
		if err := d.refreshFull(rel); err != nil {
			return nil, err
		}
	}
	return d.assemble(), nil
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

// fullPass recomputes everything and primes the caches.
func (d *IncrementalDetector) fullPass(rel *model.Relation) (*DetectResult, error) {
	if err := d.prime(rel, false); err != nil {
		return nil, err
	}
	return d.assemble(), nil
}

// prime runs the first full pass over the incrementalizable rules and,
// unless deferFull is set, the non-incrementalizable ones too (deferFull
// leaves them stale so Observe never pays for a full-rule run).
func (d *IncrementalDetector) prime(rel *model.Relation, deferFull bool) error {
	d.full = d.full[:0]
	d.fullStale = deferFull
	for i, r := range d.rules {
		if !incrementalizable(r) {
			if deferFull {
				continue
			}
			sub, err := DetectRuleWith(d.ctx, d.planner, r, rel)
			if err != nil {
				return err
			}
			d.full = append(d.full, sub.FixSets...)
			continue
		}
		sub, err := DetectRuleWith(d.ctx, d.planner, r, rel)
		if err != nil {
			return err
		}
		st := &ruleState{keyOf: map[int64]blockID{}, byBlock: map[blockID][]model.FixSet{}}
		for _, t := range rel.Tuples {
			st.keyOf[t.ID] = d.blockKey(r, t)
		}
		for _, fs := range sub.FixSets {
			k := d.violationBlock(r, st, fs)
			st.byBlock[k] = append(st.byBlock[k], fs)
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

// violationBlock attributes a fix set to a block through its first cell.
func (d *IncrementalDetector) violationBlock(r *Rule, st *ruleState, fs model.FixSet) blockID {
	if len(fs.Violation.Cells) == 0 {
		return blockID{}
	}
	return st.keyOf[fs.Violation.Cells[0].TupleID]
}

// incrementalPass refreshes one rule's state for the changed tuples.
func (d *IncrementalDetector) incrementalPass(idx int, r *Rule, rel *model.Relation, changed []int64) error {
	st := d.state[idx]
	if st == nil {
		return fmt.Errorf("core: incremental state missing for rule %s", r.ID)
	}
	byID := rel.ByID()

	// Affected blocks: old key and new key of every changed tuple.
	affected := map[blockID]bool{}
	for _, id := range changed {
		if old, ok := st.keyOf[id]; ok {
			affected[old] = true
		}
		if i, ok := byID[id]; ok {
			t := rel.Tuples[i]
			k := d.blockKey(r, t)
			affected[k] = true
			st.keyOf[id] = k
		} else {
			delete(st.keyOf, id) // tuple removed
		}
	}
	if len(affected) == 0 {
		return nil
	}

	// Re-detect the affected blocks only: restrict the relation to tuples
	// whose current key is affected.
	sub := model.NewRelation(rel.Name, rel.Schema)
	for _, t := range rel.Tuples {
		if affected[d.blockKey(r, t)] {
			sub.Append(t)
		}
	}
	for k := range affected {
		delete(st.byBlock, k)
	}
	if sub.Len() > 0 {
		res, err := DetectRuleWith(d.ctx, d.planner, r, sub)
		if err != nil {
			return err
		}
		for _, fs := range res.FixSets {
			k := d.violationBlock(r, st, fs)
			st.byBlock[k] = append(st.byBlock[k], fs)
		}
	}
	return nil
}

// assemble snapshots the cached state into a result.
func (d *IncrementalDetector) assemble() *DetectResult {
	var lists [][]model.FixSet
	for _, st := range d.state {
		for _, sets := range st.byBlock {
			lists = append(lists, sets)
		}
	}
	return assemble(append(lists, d.full))
}
