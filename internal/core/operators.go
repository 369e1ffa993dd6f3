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

// DetectFunc decides whether a candidate is a real violation, returning
// zero or more violations (Section 3.1, operator 4). It must not retain its
// Item's Tuples slice past the call: the executor may reuse one Item for
// many candidates (the OCJoin path does). The tuples themselves it may keep.
type DetectFunc func(Item) []model.Violation

// GenFixFunc computes the possible fixes for one violation (Section 3.1,
// operator 5).
type GenFixFunc func(model.Violation) []model.Fix

// BlockDetectFunc is a block kernel: Detect over every pair of one block at
// once, receiving the block's units in grouping order. It must find exactly
// the violations, in exactly the order, that Detect finds over PairsUnique
// (ordered false) or PairsOrdered (ordered true) — so it can work on the
// block as a whole instead of being called per pair, and skip the pairs it
// can prove agree. It returns one fix set per violation, Fixes unset (the
// executor's GenFix fills them in place), and the number of pairs it
// compared.
//
// Run unordered, a kernel returns each violation at most once: the
// executor may hand what it returns to repair without hashing it for
// repeats (see kernelUnique). A kernel meets this when each unordered pair yields
// distinct violations and every violation names both of its pair's tuples,
// as the FD kernel (one violation per distinct RHS attribute) and the
// same-key DC kernel do. Run ordered, it may return a violation once per
// orientation; the executor deduplicates those.
type BlockDetectFunc func(us []model.Tuple, ordered bool) ([]model.FixSet, int64)

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

// PairsUnique is the default Iterate for symmetric rules over one stream:
// the unique unordered pairs within the block, n(n-1)/2 instead of n²
// (Figure 2's four pairs instead of thirteen).
func PairsUnique(blocks [][]model.Tuple) []Item {
	if len(blocks) == 0 {
		return nil
	}
	return enumerated(func(d DetectFunc) { pairsIn(d, blocks[0], 0, len(blocks[0]), false) })
}

// PairsOrdered is the default Iterate for asymmetric rules over one stream:
// all ordered pairs within the block.
func PairsOrdered(blocks [][]model.Tuple) []Item {
	if len(blocks) == 0 {
		return nil
	}
	return enumerated(func(d DetectFunc) { pairsIn(d, blocks[0], 0, len(blocks[0]), true) })
}

// enumerated lists the items an enumeration feeds Detect.
func enumerated(enumerate func(DetectFunc)) []Item {
	var items []Item
	enumerate(func(it Item) []model.Violation {
		items = append(items, it)
		return nil
	})
	return items
}

// pairsIn feeds Detect the pairs of block us whose first unit lies in
// [lo, hi) — the unique pairs i < j, or every ordered pair i != j, outer i,
// inner j — one at a time, and returns a fix set per violation (Fixes
// unset) and the number of pairs. It is the one definition of the planner's
// pair order, which block kernels must reproduce.
func pairsIn(detect DetectFunc, us []model.Tuple, lo, hi int, ordered bool) ([]model.FixSet, int64) {
	var out []model.FixSet
	var n int64
	for i := lo; i < hi; i++ {
		j := i + 1
		if ordered {
			j = 0
		}
		for ; j < len(us); j++ {
			if j != i {
				out = appendSets(out, detect(PairItem(us[i], us[j])))
				n++
			}
		}
	}
	return out, n
}

// pairsAcross feeds Detect the cross pairs of a co-grouped key's two bags,
// skipping a unit paired with itself.
func pairsAcross(detect DetectFunc, left, right []model.Tuple) ([]model.FixSet, int64) {
	var out []model.FixSet
	var n int64
	for _, l := range left {
		for _, r := range right {
			if l.ID != r.ID {
				out = appendSets(out, detect(PairItem(l, r)))
				n++
			}
		}
	}
	return out, n
}

// appendSets appends one fix set per violation, Fixes unset, for GenFix to
// fill in place.
func appendSets(out []model.FixSet, vs []model.Violation) []model.FixSet {
	for _, v := range vs {
		out = append(out, model.FixSet{Violation: v})
	}
	return out
}
