// Package join implements BigDansing's physical join operators over tuple
// datasets: the naive CrossProduct, the UCrossProduct enhancer that halves
// the pair space for symmetric rules, and OCJoin (Algorithm 2), the
// partition-sort-prune-join operator for inequality ("ordering comparison")
// self joins that Figure 11(c) shows beating cross products by more than two
// orders of magnitude.
package join

import (
	"fmt"
	mathbits "math/bits"
	"sort"

	"bigdansing/internal/engine"
	"bigdansing/internal/model"
)

// Cond is one ordering-comparison join condition of a self join:
// left.LeftCol Op right.RightCol.
type Cond struct {
	LeftCol  int
	Op       model.Op
	RightCol int
}

// String renders the condition for diagnostics.
func (c Cond) String() string {
	return fmt.Sprintf("t1[%d] %s t2[%d]", c.LeftCol, c.Op, c.RightCol)
}

// Eval reports whether the condition holds for the ordered pair (l, r).
func (c Cond) Eval(l, r model.Tuple) bool {
	return c.Op.Eval(l.Cell(c.LeftCol), r.Cell(c.RightCol))
}

// CrossProduct enumerates all ordered pairs (t1, t2), t1 != t2 — the
// baseline physical Iterate of Figure 11(c).
func CrossProduct(d *engine.Dataset[model.Tuple]) *engine.Dataset[engine.PairOf[model.Tuple]] {
	return engine.SelfCartesian(d)
}

// UCrossProduct enumerates the n(n-1)/2 unique unordered pairs, valid when
// the rule's predicates are symmetric so detection is order-insensitive
// (Section 4.2).
func UCrossProduct(d *engine.Dataset[model.Tuple]) *engine.Dataset[engine.PairOf[model.Tuple]] {
	return engine.SelfCartesianUnique(d)
}

// partition is the per-range state OCJoin builds: the tuples plus, per join
// condition, a copy sorted on the condition's right column, and min/max
// bounds per referenced column for pruning.
type partition struct {
	tuples []model.Tuple
	// sorted[j] holds indexes into tuples ordered by conds[j].RightCol.
	sorted [][]int
	// bounds per column id: [min,max] over the partition.
	lo, hi map[int]model.Value
}

// OCJoin performs the self join of d under the conjunction of ordering
// conditions, following Algorithm 2:
//
//	Partitioning: range partition d on the first condition's left column.
//	Sorting: per partition, sort a view per condition (on its right column).
//	Pruning: skip partition pairs whose column bounds cannot satisfy every
//	  condition. (The paper prunes on PartAtt overlap only; we check
//	  feasibility of all conditions, which subsumes it and is provably safe.)
//	Joining: per surviving pair, binary-search the first condition's sorted
//	  view to bound candidates, then verify the remaining conditions.
//
// The output contains every ordered pair (t1, t2), t1 != t2, satisfying all
// conditions, exactly once.
func OCJoin(d *engine.Dataset[model.Tuple], conds []Cond, nbParts int) (*engine.Dataset[engine.PairOf[model.Tuple]], error) {
	if len(conds) == 0 {
		return nil, fmt.Errorf("join: OCJoin requires at least one condition")
	}
	for _, c := range conds {
		if !c.Op.IsOrdering() {
			return nil, fmt.Errorf("join: OCJoin condition %s is not an ordering comparison", c)
		}
	}
	if nbParts <= 0 {
		nbParts = d.Context().Parallelism()
	}
	partAtt := conds[0].LeftCol

	// --- Partitioning phase: range partition on partAtt.
	ranged := engine.RangePartitionBy(d, func(a, b model.Tuple) bool {
		return model.Compare(a.Cell(partAtt), b.Cell(partAtt)) < 0
	}, nbParts)
	if err := ranged.Err(); err != nil {
		return nil, err
	}

	// --- Sorting phase: build per-partition sorted views and bounds.
	// Collect every referenced column once.
	cols := map[int]struct{}{}
	for _, c := range conds {
		cols[c.LeftCol] = struct{}{}
		cols[c.RightCol] = struct{}{}
	}
	nParts := ranged.NumPartitions()
	parts := make([]*partition, 0, nParts)
	for p := 0; p < nParts; p++ {
		tuples := ranged.Partition(p)
		if len(tuples) == 0 {
			continue
		}
		pt := &partition{
			tuples: tuples,
			sorted: make([][]int, len(conds)),
			lo:     make(map[int]model.Value, len(cols)),
			hi:     make(map[int]model.Value, len(cols)),
		}
		for j, c := range conds {
			idx := make([]int, len(tuples))
			for i := range idx {
				idx[i] = i
			}
			col := c.RightCol
			sort.SliceStable(idx, func(a, b int) bool {
				return model.Compare(tuples[idx[a]].Cell(col), tuples[idx[b]].Cell(col)) < 0
			})
			pt.sorted[j] = idx
		}
		for col := range cols {
			lo, hi := tuples[0].Cell(col), tuples[0].Cell(col)
			for _, t := range tuples[1:] {
				v := t.Cell(col)
				if model.Compare(v, lo) < 0 {
					lo = v
				}
				if model.Compare(v, hi) > 0 {
					hi = v
				}
			}
			pt.lo[col], pt.hi[col] = lo, hi
		}
		parts = append(parts, pt)
	}

	// --- Pruning phase: enumerate ordered partition pairs (a, b) — the left
	// tuple drawn from a, the right from b — keeping only feasible ones.
	type task struct{ a, b int }
	var tasks []task
	for a := range parts {
		for b := range parts {
			if feasible(parts[a], parts[b], conds) {
				tasks = append(tasks, task{a, b})
			}
		}
	}

	// --- Joining phase: run the surviving pair joins in parallel.
	taskDS := engine.Parallelize(d.Context(), tasks, 0)
	out := engine.FlatMap(taskDS, func(tk task) []engine.PairOf[model.Tuple] {
		return joinPair(parts[tk.a], parts[tk.b], conds)
	})
	if err := out.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// feasible reports whether any (l in a, r in b) could satisfy every
// condition, using the per-column bounds.
func feasible(a, b *partition, conds []Cond) bool {
	for _, c := range conds {
		// l.Cell(LeftCol) in [a.lo, a.hi]; r.Cell(RightCol) in [b.lo, b.hi].
		aLo, aHi := a.lo[c.LeftCol], a.hi[c.LeftCol]
		bLo, bHi := b.lo[c.RightCol], b.hi[c.RightCol]
		switch c.Op {
		case model.OpLT: // exists l < r  <=>  aLo < bHi
			if model.Compare(aLo, bHi) >= 0 {
				return false
			}
		case model.OpLE:
			if model.Compare(aLo, bHi) > 0 {
				return false
			}
		case model.OpGT: // exists l > r  <=>  aHi > bLo
			if model.Compare(aHi, bLo) <= 0 {
				return false
			}
		case model.OpGE:
			if model.Compare(aHi, bLo) < 0 {
				return false
			}
		}
	}
	return true
}

// joinPair emits all ordered pairs (l in a, r in b), l != r, satisfying the
// conditions.
//
// With a single condition it walks a's tuples and narrows b's candidates
// with a binary search over the view sorted on conds[0].RightCol — already
// output-sensitive. With two or more conditions it runs a sort-merge sweep
// with a position bitset (the technique the authors later published as
// IEJoin): left tuples are processed in conds[0]-order while the right
// tuples admissible under conds[0] are accumulated, as bits, at their rank
// in the conds[1]-sorted view; each left tuple then enumerates the set bits
// inside the conds[1] rank range. The per-pair cost collapses to a word
// scan, which is where OCJoin's two-orders-of-magnitude advantage over
// cross products comes from (Figure 11(c)).
func joinPair(a, b *partition, conds []Cond) []engine.PairOf[model.Tuple] {
	if len(conds) == 1 {
		return joinPairSingle(a, b, conds)
	}
	return joinPairSweep(a, b, conds)
}

// joinPairSingle handles one condition via binary search on the sorted view.
func joinPairSingle(a, b *partition, conds []Cond) []engine.PairOf[model.Tuple] {
	var out []engine.PairOf[model.Tuple]
	c0 := conds[0]
	view := b.sorted[0]
	cellAt := func(i int) model.Value { return b.tuples[view[i]].Cell(c0.RightCol) }
	for _, l := range a.tuples {
		lv := l.Cell(c0.LeftCol)
		lo, hi := rankRange(c0.Op, lv, len(view), cellAt)
		for i := lo; i < hi; i++ {
			r := b.tuples[view[i]]
			if r.ID == l.ID {
				continue
			}
			out = append(out, engine.PairOf[model.Tuple]{Left: l, Right: r})
		}
	}
	return out
}

// rankRange computes the half-open index range [lo, hi) of a view sorted
// ascending (values via cellAt) whose values v satisfy lv op v.
func rankRange(op model.Op, lv model.Value, n int, cellAt func(int) model.Value) (int, int) {
	switch op {
	case model.OpLT: // v > lv
		return sort.Search(n, func(i int) bool { return model.Compare(cellAt(i), lv) > 0 }), n
	case model.OpLE: // v >= lv
		return sort.Search(n, func(i int) bool { return model.Compare(cellAt(i), lv) >= 0 }), n
	case model.OpGT: // v < lv
		return 0, sort.Search(n, func(i int) bool { return model.Compare(cellAt(i), lv) >= 0 })
	case model.OpGE: // v <= lv
		return 0, sort.Search(n, func(i int) bool { return model.Compare(cellAt(i), lv) > 0 })
	default:
		return 0, n
	}
}

// joinPairSweep handles two or more conditions with the bitset sweep.
func joinPairSweep(a, b *partition, conds []Cond) []engine.PairOf[model.Tuple] {
	c0, c1 := conds[0], conds[1]
	rest := conds[2:]

	// Right side: BX ascending on c0.RightCol drives insertion; BY
	// ascending on c1.RightCol defines bit positions.
	bx, by := b.sorted[0], b.sorted[1]
	rankOf := make([]int, len(b.tuples)) // tuple index -> rank in BY
	for rank, ti := range by {
		rankOf[ti] = rank
	}
	yAt := func(rank int) model.Value { return b.tuples[by[rank]].Cell(c1.RightCol) }

	// Left side: process in c0.LeftCol order. For ">"-type conditions the
	// admissible right set (r.X < l.X) grows with ascending l.X; for
	// "<"-type it grows with descending l.X.
	order := make([]int, len(a.tuples))
	for i := range order {
		order[i] = i
	}
	asc := c0.Op == model.OpGT || c0.Op == model.OpGE
	sort.SliceStable(order, func(i, j int) bool {
		c := model.Compare(a.tuples[order[i]].Cell(c0.LeftCol), a.tuples[order[j]].Cell(c0.LeftCol))
		if asc {
			return c < 0
		}
		return c > 0
	})

	// admissible reports whether right value rx is admissible for lx.
	admissible := func(lx, rx model.Value) bool { return c0.Op.Eval(lx, rx) }

	bits := make([]uint64, (len(b.tuples)+63)/64)
	set := func(rank int) { bits[rank>>6] |= 1 << uint(rank&63) }

	var out []engine.PairOf[model.Tuple]
	// Insertion pointer into BX: ascending for ">"-type, descending for
	// "<"-type (larger right X first).
	j := 0
	if !asc {
		j = len(bx) - 1
	}
	for _, li := range order {
		l := a.tuples[li]
		lx := l.Cell(c0.LeftCol)
		if asc {
			for j < len(bx) && admissible(lx, b.tuples[bx[j]].Cell(c0.RightCol)) {
				set(rankOf[bx[j]])
				j++
			}
			// The pointer stops at the first non-admissible right value;
			// because BX is ascending and the op is >-type, everything
			// beyond is non-admissible too.
		} else {
			for j >= 0 && admissible(lx, b.tuples[bx[j]].Cell(c0.RightCol)) {
				set(rankOf[bx[j]])
				j--
			}
		}
		lo, hi := rankRange(c1.Op, l.Cell(c1.LeftCol), len(by), yAt)
		emitSetBits(bits, lo, hi, func(rank int) {
			r := b.tuples[by[rank]]
			if r.ID == l.ID {
				return
			}
			for _, c := range rest {
				if !c.Eval(l, r) {
					return
				}
			}
			out = append(out, engine.PairOf[model.Tuple]{Left: l, Right: r})
		})
	}
	return out
}

// emitSetBits visits every set bit with index in [lo, hi).
func emitSetBits(bits []uint64, lo, hi int, visit func(rank int)) {
	if lo >= hi {
		return
	}
	firstWord, lastWord := lo>>6, (hi-1)>>6
	for w := firstWord; w <= lastWord; w++ {
		word := bits[w]
		if word == 0 {
			continue
		}
		if w == firstWord {
			word &= ^uint64(0) << uint(lo&63)
		}
		if w == lastWord {
			rem := uint(hi - w<<6)
			if rem < 64 {
				word &= (uint64(1) << rem) - 1
			}
		}
		for word != 0 {
			bit := mathbits.TrailingZeros64(word)
			visit(w<<6 + bit)
			word &= word - 1
		}
	}
}
