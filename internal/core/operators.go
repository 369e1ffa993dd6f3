// Package core implements BigDansing's primary contribution: the
// five-operator rule-specification abstraction (Scope, Block, Iterate,
// Detect, GenFix), the job API that wires labeled operators over input
// datasets (Appendix A), the logical planner (Section 3.2), the plan
// consolidation and enhancer-selection optimizations (Section 4), and
// execution layers for both the in-memory dataflow backend and the
// disk-based MapReduce backend (Appendix G).
//
// Operator functions are invoked concurrently from many workers — that is
// the point of the abstraction ("it allows to apply an operator in a highly
// parallel fashion", Section 3.1) — so they must be safe for concurrent
// use: treat their inputs as read-only and avoid writing shared state
// without synchronization.
package core

import (
	"math"
	"slices"

	"bigdansing/internal/model"
)

// ScopeFunc removes irrelevant data units and/or projects their elements.
// Returning an empty slice drops the unit; returning several replicates it
// (Section 3.1, operator 1).
type ScopeFunc func(model.Tuple) []model.Tuple

// BlockFunc assigns a data unit the blocking key of the group in which
// violations may occur (Section 3.1, operator 2). The key is a model.Value:
// single-attribute blocks return the cell value itself (no per-record
// allocation), composite blocks render their parts into one string value.
// The engine groups on the value's comparable MapKey, so I(1), F(1) and
// S("1") block apart exactly as the old string keys did.
type BlockFunc func(model.Tuple) model.Value

// IterateFunc combines data units into candidate violations. It receives
// one list per input stream (the units of one co-grouped block) and emits
// the items Detect will examine (Section 3.1, operator 3).
type IterateFunc func(blocks [][]model.Tuple) []Item

// DetectFunc decides whether a candidate is a real violation, emitting zero
// or more violations into out (Section 3.1, operator 4), in the manner of a
// Hadoop map function's OutputCollector. It must not retain its Item's
// Tuples slice past the call: the executor reuses one Item for many
// candidates. The tuples themselves it may keep.
type DetectFunc func(it Item, out *Output)

// GenFixFunc computes the possible fixes for one violation (Section 3.1,
// operator 5), appending them to dst and returning the extended slice, as
// append does. A fix names cells of the violation's tuples only, so the
// fixes of a blocked rule stay within its block (DetectView). A cell fix
// may share the violation's cells (model.CellFixOf): they stay put for as
// long as the fixes live.
type GenFixFunc func(dst []model.Fix, v model.Violation) []model.Fix

// BlockDetectFunc is a block kernel: Detect over every pair of one block at
// once, receiving the block's units in grouping order. It must find exactly
// the violations, in exactly the order, that Detect finds over PairsUnique
// (ordered false) or PairsOrdered (ordered true) — so it can work on the
// block as a whole instead of being called per pair, and skip the pairs it
// can prove agree. It emits the violations into out, announcing their
// number with Output.Grow when it knows it, and returns the number of pairs
// it compared.
//
// Run unordered, a kernel emits each violation at most once: the
// executor may hand what it emits to repair without hashing it for
// repeats (see kernelUnique). A kernel meets this when each unordered pair yields
// distinct violations and every violation names both of its pair's tuples,
// as the FD kernel (one violation per distinct RHS attribute) and the
// same-key DC kernel do. Run ordered, it may emit a violation once per
// orientation; the executor deduplicates those.
type BlockDetectFunc func(us []model.Tuple, ordered bool, out *Output) int64

// ItemKind distinguishes the three input granularities Detect accepts: a
// single unit, a pair of units, or a list of units. Distinguishing them
// lets the executor parallelize at the finest granularity available.
type ItemKind uint8

const (
	// ItemSingle is one data unit.
	ItemSingle ItemKind = iota
	// ItemPair is an ordered pair of units.
	ItemPair
	// ItemList is an arbitrary list of units.
	ItemList
)

// Item is a candidate violation: the unit(s) Iterate hands to Detect.
type Item struct {
	Kind   ItemKind
	Tuples []model.Tuple
}

// Single wraps one unit.
func Single(t model.Tuple) Item { return Item{Kind: ItemSingle, Tuples: []model.Tuple{t}} }

// PairItem wraps an ordered pair.
func PairItem(l, r model.Tuple) Item {
	return Item{Kind: ItemPair, Tuples: []model.Tuple{l, r}}
}

// One returns the single unit (valid for ItemSingle).
func (it Item) One() model.Tuple { return it.Tuples[0] }

// Left returns the first unit of a pair.
func (it Item) Left() model.Tuple { return it.Tuples[0] }

// Right returns the second unit of a pair.
func (it Item) Right() model.Tuple { return it.Tuples[1] }

// Output is the buffer a per-group detector emits its violations into, the
// OutputCollector of the paper's Detect UDF (Appendix G): the cells of
// every violation back to back in one slab, after GenFix the fixes of every
// violation back to back in another, and one pair of int32 end offsets per
// violation. The hand-off (assemble) makes each violation and fix set a
// window on the slabs, so a violation costs no heap object of its own, and
// a group that emits nothing allocates nothing.
//
// A detector that knows how many violations it will emit announces them
// with Grow; the first violation's width then sizes the cells slab once.
// Otherwise the slabs grow by doubling.
type Output struct {
	rule  string   // every violation's rule ID, until two differ
	ids   []string // each violation's rule ID, once two differ
	cells []model.Cell
	fixes []model.Fix
	ends  []outEnd
	want  int // violations announced by Grow and not yet sized for
}

// outEnd ends one violation's cells and fixes in their slabs.
type outEnd struct{ cells, fixes int32 }

// Grow announces that n violations are about to be emitted, so the slabs
// are sized for them once, when the first one arrives.
func (o *Output) Grow(n int) { o.want = n }

// Add emits one violation of rule ruleID with n cells and returns the
// cells for the caller to fill, every one of them, before its next call.
func (o *Output) Add(ruleID string, n int) []model.Cell {
	k := len(o.ends)
	switch {
	case k == 0:
		o.rule = ruleID
	case o.ids == nil && ruleID != o.rule:
		o.ids = make([]string, k, cap(o.ends))
		for i := range o.ids {
			o.ids[i] = o.rule
		}
	}
	if o.ids != nil {
		o.ids = append(o.ids, ruleID)
	}
	lo := len(o.cells)
	if lo+n > cap(o.cells) {
		// Room for the announced violations, else for as many again as
		// there are.
		v := max(o.want, k, 1)
		o.cells = append(make([]model.Cell, 0, lo+v*n), o.cells...)
		o.ends = append(make([]outEnd, 0, k+v), o.ends...)
		o.want = 0
	}
	if lo+n > math.MaxInt32 {
		panic("core: a group's violations exceed 2^31 cells")
	}
	o.cells = o.cells[:lo+n]
	o.ends = append(o.ends, outEnd{cells: int32(lo + n)})
	return o.cells[lo : lo+n : lo+n]
}

// Emit emits one violation of rule ruleID naming cells, copying them.
func (o *Output) Emit(ruleID string, cells ...model.Cell) {
	copy(o.Add(ruleID, len(cells)), cells)
}

// Violations lists the violations emitted so far, as windows on the slab.
func (o *Output) Violations() []model.Violation {
	vs := make([]model.Violation, len(o.ends))
	for i := range vs {
		vs[i] = o.violation(i)
	}
	return vs
}

// violation is violation i, its cells a window on the slab.
func (o *Output) violation(i int) model.Violation {
	var lo int32
	if i > 0 {
		lo = o.ends[i-1].cells
	}
	hi := o.ends[i].cells
	id := o.rule
	if o.ids != nil {
		id = o.ids[i]
	}
	return model.NewViolation(id, o.cells[lo:hi:hi]...)
}

// fixSet is violation i with its fixes, both windows on the slabs.
func (o *Output) fixSet(i int) model.FixSet {
	fs := model.FixSet{Violation: o.violation(i)}
	var lo int32
	if i > 0 {
		lo = o.ends[i-1].fixes
	}
	if hi := o.ends[i].fixes; hi > lo {
		fs.Fixes = o.fixes[lo:hi:hi]
	}
	return fs
}

// genFix runs GenFix over every violation, appending its fixes to the
// fixes slab. The slab is sized once at one fix per two cells — the shape
// of a fix relating a pair of its violation's cells — and a GenFix that
// proposes more grows it.
func (o *Output) genFix(genfix GenFixFunc) {
	if genfix == nil || len(o.ends) == 0 {
		return
	}
	n, lo := 0, int32(0)
	for _, e := range o.ends {
		n += int(e.cells-lo+1) / 2
		lo = e.cells
	}
	o.fixes = slices.Grow(o.fixes[:0], n)
	for i := range o.ends {
		o.fixes = genfix(o.fixes, o.violation(i))
		o.ends[i].fixes = int32(len(o.fixes))
	}
}

// PairsUnique is the default Iterate for symmetric rules over one stream:
// the unique unordered pairs within the block, n(n-1)/2 instead of n²
// (Figure 2's four pairs instead of thirteen).
func PairsUnique(blocks [][]model.Tuple) []Item {
	if len(blocks) == 0 {
		return nil
	}
	return enumerated(func(d DetectFunc) { pairsIn(d, blocks[0], 0, len(blocks[0]), false, nil) })
}

// PairsOrdered is the default Iterate for asymmetric rules over one stream:
// all ordered pairs within the block.
func PairsOrdered(blocks [][]model.Tuple) []Item {
	if len(blocks) == 0 {
		return nil
	}
	return enumerated(func(d DetectFunc) { pairsIn(d, blocks[0], 0, len(blocks[0]), true, nil) })
}

// enumerated lists the pair items an enumeration feeds Detect, each its
// own Item (the enumeration reuses one).
func enumerated(enumerate func(DetectFunc)) []Item {
	var items []Item
	enumerate(func(it Item, _ *Output) {
		items = append(items, PairItem(it.Left(), it.Right()))
	})
	return items
}

// pairsIn feeds Detect the pairs of block us whose first unit lies in
// [lo, hi) — the unique pairs i < j, or every ordered pair i != j, outer i,
// inner j — one at a time through one reused Item, and returns the number
// of pairs. It is the one definition of the planner's pair order, which
// block kernels must reproduce.
func pairsIn(detect DetectFunc, us []model.Tuple, lo, hi int, ordered bool, out *Output) int64 {
	if len(us) < 2 || lo >= hi {
		return 0
	}
	it := Item{Kind: ItemPair, Tuples: make([]model.Tuple, 2)}
	var n int64
	for i := lo; i < hi; i++ {
		j := i + 1
		if ordered {
			j = 0
		}
		for ; j < len(us); j++ {
			if j != i {
				it.Tuples[0], it.Tuples[1] = us[i], us[j]
				detect(it, out)
				n++
			}
		}
	}
	return n
}

// pairsAcross feeds Detect the cross pairs of a co-grouped key's two bags,
// skipping a unit paired with itself.
func pairsAcross(detect DetectFunc, left, right []model.Tuple, out *Output) int64 {
	if len(left) == 0 || len(right) == 0 {
		return 0
	}
	it := Item{Kind: ItemPair, Tuples: make([]model.Tuple, 2)}
	var n int64
	for _, l := range left {
		for _, r := range right {
			if l.ID != r.ID {
				it.Tuples[0], it.Tuples[1] = l, r
				detect(it, out)
				n++
			}
		}
	}
	return n
}
