package repair

import (
	"slices"
	"sync"
	"sync/atomic"

	"bigdansing/internal/graph"
	"bigdansing/internal/model"
)

// fixSetComponents groups fix sets into connected components: two fix sets
// are connected when they touch a common cell. It returns, per fix set, the
// component ID — the smallest fix-set index in the component — plus the
// per-fix-set cell keys (reused by callers that go on to split oversized
// components).
//
// The computation runs on interned integer cell IDs and a lock-free
// union-find, and parallelizes both the cell-collection and the union phases
// across the worker pool:
//
//  1. workers extract each fix set's distinct cell keys (comparable
//     model.CellKey structs — no strings are rendered);
//  2. cell keys are interned to dense integers sequentially (one map pass);
//  3. workers race CAS claims on a per-cell owner slot: the first fix set
//     to touch a cell owns it, later ones union with the owner — every
//     pair of fix sets sharing a cell ends up connected through its owner;
//  4. the final labels are read off the quiesced union-find.
func fixSetComponents(fixSets []model.FixSet, parallelism int) (comp []int64, cellKeys [][]model.CellKey) {
	n := len(fixSets)
	cellKeys = make([][]model.CellKey, n)
	comp = make([]int64, n)
	if n == 0 {
		return comp, cellKeys
	}
	if parallelism <= 0 {
		parallelism = 4
	}
	if parallelism > n {
		parallelism = n
	}

	// Phase 1: per-fix-set cell keys, in parallel.
	runChunks(n, parallelism, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			cellKeys[i] = cellKeysOfFixSet(fixSets[i])
		}
	})

	// Phase 2: intern cell keys to dense integer IDs.
	cellID := make(map[model.CellKey]int32)
	ids := make([][]int32, n)
	for i, keys := range cellKeys {
		row := make([]int32, len(keys))
		for j, k := range keys {
			id, ok := cellID[k]
			if !ok {
				id = int32(len(cellID))
				cellID[k] = id
			}
			row[j] = id
		}
		ids[i] = row
	}

	// Phase 3: union fix sets through shared cells, in parallel. owner[c]
	// holds the first fix set that claimed cell c (-1 while unclaimed);
	// the claim CAS makes each cell a rendezvous point, so every fix set
	// touching it unions with the same owner.
	ownerSlots := make([]atomic.Int32, len(cellID))
	for i := range ownerSlots {
		ownerSlots[i].Store(-1)
	}
	uf := graph.NewConcurrentUnionFind(n)
	runChunks(n, parallelism, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fi := int32(i)
			for _, c := range ids[i] {
				if ownerSlots[c].CompareAndSwap(-1, fi) {
					continue
				}
				uf.Union(fi, ownerSlots[c].Load())
			}
		}
	})

	// Phase 4: final labels. All unions have quiesced, so Find is stable;
	// the root is the minimum fix-set index of the component.
	runChunks(n, parallelism, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			comp[i] = int64(uf.Find(int32(i)))
		}
	})
	return comp, cellKeys
}

// runChunks splits [0, n) into parallelism contiguous chunks and runs fn on
// each from its own goroutine.
func runChunks(n, parallelism int, fn func(lo, hi int)) {
	if parallelism <= 1 || n <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + parallelism - 1) / parallelism
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// cellKeysOfFixSet collects the distinct cells a fix set touches — the
// nodes its hyperedge covers (violation cells plus fix cells) — as sorted
// comparable keys.
func cellKeysOfFixSet(fs model.FixSet) []model.CellKey {
	n := len(fs.Violation.Cells)
	for _, f := range fs.Fixes {
		n += len(f.Cells())
	}
	out := make([]model.CellKey, 0, n)
	add := func(c model.Cell) {
		k := c.MapKey()
		for _, have := range out {
			if have == k {
				return
			}
		}
		out = append(out, k)
	}
	for _, c := range fs.Violation.Cells {
		add(c)
	}
	for _, f := range fs.Fixes {
		for _, c := range f.Cells() {
			add(c)
		}
	}
	slices.SortFunc(out, model.CellKey.Compare)
	return out
}
