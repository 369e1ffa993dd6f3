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
	"slices"
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

// partition is the per-range state OCJoin builds once, before any task
// runs: the tuples, the orders the joining phase walks and searches, and
// min/max bounds per referenced column for pruning.
type partition struct {
	tuples []model.Tuple
	// x orders the tuples on conds[0].RightCol: ascending with one
	// condition, in the sweep's direction with more (see sweep).
	x []int
	// With two or more conditions, left orders the tuples on
	// conds[0].LeftCol in the sweep's direction, y orders them ascending on
	// conds[1].RightCol, and rankOf maps a tuple index to its rank in y.
	left, y, rankOf []int
	// lo[col], hi[col] bound each referenced column over the partition.
	lo, hi []model.Value
}

// Task is one partition pair that survived OCJoin's pruning: its pairs
// draw the left tuple from partition a and the right from b.
type Task struct {
	a, b  *partition
	conds []Cond
}

// OCJoin performs the self join of d under the conjunction of ordering
// conditions, following Algorithm 2:
//
//	Partitioning: range partition d on the first condition's left column.
//	Sorting: per partition, sort the views the joining phase walks.
//	Pruning: skip partition pairs whose column bounds cannot satisfy every
//	  condition. (The paper prunes on PartAtt overlap only; we check
//	  feasibility of all conditions, which subsumes it and is provably safe.)
//	Joining: per surviving pair, bound the candidates on the first two
//	  conditions (see sweep), then verify the remaining ones.
//
// It runs the first three phases and returns the joining phase as tasks,
// one per surviving partition pair, so that the pairs' consumer runs inside
// the join and no pair list is built. Across the tasks, Each visits every
// ordered pair (t1, t2), t1 != t2, satisfying all conditions, exactly once.
func OCJoin(d *engine.Dataset[model.Tuple], conds []Cond, nbParts int) (*engine.Dataset[Task], error) {
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
	c0 := conds[0]

	// --- Partitioning phase: range partition on c0.LeftCol.
	ranged := engine.RangePartitionBy(d, func(a, b model.Tuple) bool {
		return model.Compare(a.Cell(c0.LeftCol), b.Cell(c0.LeftCol)) < 0
	}, nbParts)
	if err := ranged.Err(); err != nil {
		return nil, err
	}

	// --- Sorting phase: build per-partition sorted views and bounds.
	var cols []int
	for _, c := range conds {
		cols = append(cols, c.LeftCol, c.RightCol)
	}
	slices.Sort(cols)
	cols = slices.Compact(cols)
	// The sweep walks the left tuples in the order that admits right tuples
	// as a growing prefix of x: ascending for a >-type c0, descending for a
	// <-type one. A single condition searches x, ascending.
	dir := 1
	if len(conds) > 1 && (c0.Op == model.OpLT || c0.Op == model.OpLE) {
		dir = -1
	}
	var parts []*partition
	for p := range ranged.NumPartitions() {
		tuples := ranged.Partition(p)
		if len(tuples) == 0 {
			continue
		}
		pt := &partition{
			tuples: tuples,
			x:      sortedOn(tuples, c0.RightCol, dir),
			lo:     make([]model.Value, cols[len(cols)-1]+1),
			hi:     make([]model.Value, cols[len(cols)-1]+1),
		}
		if len(conds) > 1 {
			pt.left = sortedOn(tuples, c0.LeftCol, dir)
			pt.y = sortedOn(tuples, conds[1].RightCol, 1)
			pt.rankOf = make([]int, len(tuples))
			for rank, ti := range pt.y {
				pt.rankOf[ti] = rank
			}
		}
		for _, col := range cols {
			byCol := func(x, y model.Tuple) int { return model.Compare(x.Cell(col), y.Cell(col)) }
			pt.lo[col], pt.hi[col] = slices.MinFunc(tuples, byCol).Cell(col), slices.MaxFunc(tuples, byCol).Cell(col)
		}
		parts = append(parts, pt)
	}

	// --- Pruning phase: enumerate ordered partition pairs (a, b) — the left
	// tuple drawn from a, the right from b — keeping only feasible ones.
	var tasks []Task
	for _, a := range parts {
		for _, b := range parts {
			if feasible(a, b, conds) {
				tasks = append(tasks, Task{a, b, conds})
			}
		}
	}

	// --- Joining phase: the tasks run wherever the consumer maps them.
	return engine.Parallelize(d.Context(), tasks, 0), nil
}

// sortedOn returns the indexes of tuples stably sorted on col, ascending
// (dir 1) or descending (dir -1).
func sortedOn(tuples []model.Tuple, col, dir int) []int {
	idx := make([]int, len(tuples))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(x, y int) int {
		return dir * model.Compare(tuples[x].Cell(col), tuples[y].Cell(col))
	})
	return idx
}

// feasible reports whether any (l in a, r in b) could satisfy every
// condition, using the per-column bounds: some l.LeftCol op r.RightCol
// holds exactly when it holds for a's least left value and b's greatest
// right value (op < or <=), or a's greatest and b's least (op > or >=).
func feasible(a, b *partition, conds []Cond) bool {
	for _, c := range conds {
		l, r := a.lo[c.LeftCol], b.hi[c.RightCol]
		if c.Op == model.OpGT || c.Op == model.OpGE {
			l, r = a.hi[c.LeftCol], b.lo[c.RightCol]
		}
		if !c.Op.Eval(l, r) {
			return false
		}
	}
	return true
}

// Each visits every ordered pair (l in a, r in b), l != r, satisfying the
// task's conditions, in join order, without building a pair list.
func (t Task) Each(visit func(l, r model.Tuple)) {
	rest := t.conds[min(2, len(t.conds)):]
	t.sweep(func(l model.Tuple, view []int, bits []uint64, lo, hi int) {
		emit := func(rank int) {
			r := t.b.tuples[view[rank]]
			if r.ID == l.ID {
				return
			}
			for _, c := range rest {
				if !c.Eval(l, r) {
					return
				}
			}
			visit(l, r)
		}
		emitSetBits(bits, lo, hi, emit)
	})
}

// Bound returns an upper bound on the number of pairs Each visits, from
// popcounts over the same rank ranges. It is exact with one or two
// conditions, where Each checks nothing beyond the ranges but the
// self-pair, which Bound subtracts; further conditions only drop pairs.
func (t Task) Bound() int {
	n := 0
	t.sweep(func(l model.Tuple, _ []int, bits []uint64, lo, hi int) {
		n += countSetBits(bits, lo, hi)
		// l is its own candidate exactly when its partition is both sides
		// and it meets the first two conditions against itself.
		self := t.a == t.b
		for _, c := range t.conds[:min(2, len(t.conds))] {
			self = self && c.Eval(l, l)
		}
		if self {
			n--
		}
	})
	return n
}

// sweep visits the task's left tuples in join order, each with its
// candidate right tuples: the ranks set in bits within [lo, hi) of view,
// which maps a rank to an index into b's tuples.
//
// With a single condition, view is b.x, every rank is set, and the range
// comes from a binary search — already output-sensitive. With two or more
// conditions it runs a sort-merge sweep with a position bitset (the
// technique the authors later published as IEJoin): the left tuples are
// walked in a.left's order, in which the right tuples admissible under
// conds[0] grow as a prefix of b.x; each is accumulated, as a bit, at its
// rank in b.y, and the candidates of a left tuple are the set bits inside
// its conds[1] rank range. The per-pair cost collapses to a word scan,
// which is where OCJoin's two-orders-of-magnitude advantage over cross
// products comes from (Figure 11(c)).
func (t Task) sweep(visit func(l model.Tuple, view []int, bits []uint64, lo, hi int)) {
	a, b := t.a, t.b
	c0 := t.conds[0]
	bits := make([]uint64, (len(b.tuples)+63)/64)
	set := func(rank int) { bits[rank>>6] |= 1 << uint(rank&63) }
	if len(t.conds) == 1 {
		xAt := func(rank int) model.Value { return b.tuples[b.x[rank]].Cell(c0.RightCol) }
		for rank := range b.x {
			set(rank)
		}
		for _, l := range a.tuples {
			lo, hi := rankRange(c0.Op, l.Cell(c0.LeftCol), len(b.x), xAt)
			visit(l, b.x, bits, lo, hi)
		}
		return
	}
	c1 := t.conds[1]
	yAt := func(rank int) model.Value { return b.tuples[b.y[rank]].Cell(c1.RightCol) }
	j := 0 // b.x[:j] is admitted
	for _, li := range a.left {
		l := a.tuples[li]
		lx := l.Cell(c0.LeftCol)
		for ; j < len(b.x) && c0.Op.Eval(lx, b.tuples[b.x[j]].Cell(c0.RightCol)); j++ {
			set(b.rankOf[b.x[j]])
		}
		lo, hi := rankRange(c1.Op, l.Cell(c1.LeftCol), len(b.y), yAt)
		visit(l, b.y, bits, lo, hi)
	}
}

// rankRange computes the half-open index range [lo, hi) of a view sorted
// ascending (values via cellAt) whose values v satisfy lv op v: a suffix of
// the view for op < or <=, a prefix for > or >=.
func rankRange(op model.Op, lv model.Value, n int, cellAt func(int) model.Value) (int, int) {
	if op == model.OpLT || op == model.OpLE {
		return sort.Search(n, func(i int) bool { return op.Eval(lv, cellAt(i)) }), n
	}
	return 0, sort.Search(n, func(i int) bool { return !op.Eval(lv, cellAt(i)) })
}

// emitSetBits visits every set bit with index in [lo, hi).
func emitSetBits(bits []uint64, lo, hi int, visit func(rank int)) {
	for w := lo >> 6; lo < hi && w <= (hi-1)>>6; w++ {
		for word := maskedWord(bits, w, lo, hi); word != 0; word &= word - 1 {
			visit(w<<6 + mathbits.TrailingZeros64(word))
		}
	}
}

// countSetBits counts the set bits with index in [lo, hi).
func countSetBits(bits []uint64, lo, hi int) int {
	n := 0
	for w := lo >> 6; lo < hi && w <= (hi-1)>>6; w++ {
		n += mathbits.OnesCount64(maskedWord(bits, w, lo, hi))
	}
	return n
}

// maskedWord is word w of bits with the positions outside [lo, hi) cleared.
func maskedWord(bits []uint64, w, lo, hi int) uint64 {
	word := bits[w]
	if w == lo>>6 {
		word &= ^uint64(0) << uint(lo&63)
	}
	if rem := uint(hi - w<<6); rem < 64 {
		word &= (uint64(1) << rem) - 1
	}
	return word
}
