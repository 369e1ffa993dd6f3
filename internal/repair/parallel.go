package repair

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"bigdansing/internal/engine"
	"bigdansing/internal/model"
)

// Options configures the parallel black-box repair of Section 5.1.
type Options struct {
	// Parallelism bounds concurrent repair instances (<=0: 4).
	Parallelism int
	// MaxComponentSize is the hyperedge count above which a connected
	// component is split k-ways across repair instances, emulating the
	// "component does not fit in memory" case (<=0: no splitting).
	MaxComponentSize int
	// KParts is the split fan-out for oversized components (<=0: 2).
	KParts int
	// MaxReconcileIters bounds the master/slave reconciliation loop
	// (<=0: 10).
	MaxReconcileIters int
	// Observer, when set, receives the repair's phase spans (component
	// discovery, the parallel instances, reconciliation rounds). Nil means
	// no reporting.
	Observer engine.Observer
}

// Report describes one parallel repair run.
type Report struct {
	Components      int
	SplitComponents int
	Conflicts       int
	Assignments     int
}

// RepairParallel runs the centralized algorithm algo as a black box over
// the violations, in parallel (Section 5.1):
//
//  1. the fix sets form a hypergraph (nodes: elements; hyperedges: the
//     elements of one violation plus its fixes);
//  2. its connected components are computed in one sequential pass that
//     resolves each cell to the first fix set touching it through a dense
//     owner table and unions on a min-root union-find (the role GraphX's
//     connectedComponents plays in Figure 7);
//  3. each component becomes an independent repair instance, handed a
//     window of the caller's fixSets when the components already lie
//     contiguous (as one rule's do, in detection's block order) and of a
//     component-ordered copy otherwise; fixSets is never written;
//  4. components larger than MaxComponentSize are split k-ways; the first
//     part plays master and its changes are immutable — a slave assignment
//     contradicting a master (or earlier-slave) assignment is undone and
//     re-repaired in the next reconciliation iteration (Example 2's
//     protocol), which always terminates because settled values never
//     change again.
func RepairParallel(fixSets []model.FixSet, algo Algorithm, opts Options) ([]Assignment, *Report, error) {
	if len(fixSets) == 0 {
		return nil, &Report{}, nil
	}
	r := newParallelRun(algo, opts)
	defer r.sp.End()

	// 1-2. Connected components, laid out component by component.
	csp := r.obs.BeginSpan(r.sp, "components", engine.SpanRepair)
	sets, bounds := gatherComponents(fixSets, fixSetComponents(fixSets))
	nComp := len(bounds) - 1
	csp.Attr(engine.AttrComponents, int64(nComp))
	csp.End()

	// 3-4. One task per component, on its window of the gathered fix sets.
	return r.run(nComp, func(slot int, w *worker, out *taskResult) {
		lo, hi := bounds[slot], bounds[slot+1]
		r.instance(slot, sets[lo:hi:hi], out)
	})
}

// Blocks is fix sets laid out in blocks that no component crosses: no cell
// is touched by fix sets of two blocks. The violating blocks of one
// blocked, scope-free rule are such a layout (core.DetectView).
type Blocks interface {
	// NumBlocks is the number of blocks.
	NumBlocks() int
	// AppendBlock appends block i's fix sets, in order, to dst.
	AppendBlock(dst []model.FixSet, i int) []model.FixSet
}

// RepairBlocks is RepairParallel over the fix sets of blocks that keep
// accepts, taking the components from the blocks: since no component
// crosses two blocks, the worker that takes a block splits its kept fix
// sets into components as fixSetComponents does, on a cell table of its
// own reset per block (an FD block is one component), and runs one
// instance per component, on a buffer of its own
// that it reuses from block to block. The components, and the fix sets
// each instance receives, are those RepairParallel finds over the kept fix
// sets concatenated in block order, so the assignments and the report are
// the same. The algorithm must not keep its component past Repair.
func RepairBlocks(blocks Blocks, keep func(model.FixSet) bool, algo Algorithm, opts Options) ([]Assignment, *Report, error) {
	n := blocks.NumBlocks()
	if n == 0 {
		return nil, &Report{}, nil
	}
	r := newParallelRun(algo, opts)
	defer r.sp.End()

	// 1-2. The blocks are the tasks; each splits into its components where
	// it is repaired.
	csp := r.obs.BeginSpan(r.sp, "components", engine.SpanRepair)
	csp.Attr(engine.AttrPartitions, int64(n))
	csp.End()

	// 3-4. One task per block, an instance per component.
	return r.run(n, func(slot int, w *worker, out *taskResult) {
		w.sets = blocks.AppendBlock(w.sets[:0], slot)
		kept := w.sets[:0]
		for _, fs := range w.sets {
			if keep(fs) {
				kept = append(kept, fs)
			}
		}
		clear(w.sets[len(kept):])
		w.sets = kept
		if len(kept) == 0 {
			return
		}
		labels, nc := w.components(kept)
		if nc == 1 {
			r.instance(slot, kept, out)
		} else {
			for root, l := range labels {
				if int(l) != root {
					continue
				}
				w.comp = w.comp[:0]
				for i, li := range labels[root:] {
					if li == l {
						w.comp = append(w.comp, kept[root+i])
					}
				}
				r.instance(slot, w.comp, out)
				poison(w.comp)
			}
		}
		poison(w.sets)
	})
}

// parallelRun is one RepairParallel or RepairBlocks call: its settings and
// its "repair" span.
type parallelRun struct {
	algo Algorithm
	opts Options
	obs  engine.Observer
	sp   engine.Span
	isp  engine.Span // the "instances" span, while the tasks run
}

func newParallelRun(algo Algorithm, opts Options) *parallelRun {
	if opts.Parallelism <= 0 {
		opts.Parallelism = 4
	}
	if opts.KParts <= 0 {
		opts.KParts = 2
	}
	if opts.MaxReconcileIters <= 0 {
		opts.MaxReconcileIters = 10
	}
	r := &parallelRun{algo: algo, opts: opts, obs: opts.Observer}
	if r.obs == nil {
		r.obs = engine.Discard
	}
	r.sp = r.obs.BeginSpan(nil, "repair", engine.SpanRepair)
	r.sp.Attr(engine.AttrAlgorithm, AlgorithmCode(algo.Name()))
	return r
}

// poisonedRule is the rule ID of the fix sets a race build writes over a
// component buffer after its instance returns (see poison).
const poisonedRule = "repair: poisoned component buffer"

// poison empties a pooled component buffer once its instance has returned,
// so the buffer pins no detector slab. A race build overwrites it with
// poisoned fix sets instead: an algorithm that keeps its component past
// Repair then reads them, not silently the next block's fix sets.
func poison(sets []model.FixSet) {
	if !raceEnabled {
		clear(sets)
		return
	}
	for i := range sets {
		sets[i] = model.FixSet{Violation: model.Violation{RuleID: poisonedRule}}
	}
}

// worker is the scratch one pool worker keeps from task to task.
type worker struct {
	sets, comp []model.FixSet
	owners     blockOwners
	uf         minRootUF
}

// components is fixSetComponents over one block's fix sets, on the
// worker's scratch, with the number of components. The labels are the
// worker's until its next call.
func (w *worker) components(sets []model.FixSet) ([]int32, int) {
	w.owners.reset()
	w.uf = w.uf[:0]
	for i := range sets {
		w.uf = append(w.uf, int32(i))
	}
	labels, n := unionByCells(sets, &w.owners, w.uf), 0
	for i, l := range labels {
		if int(l) == i {
			n++
		}
	}
	return labels, n
}

// taskResult is what one task's instances decided.
type taskResult struct {
	assignments        []Assignment
	components, splits int
	conflicts          int
	err                error
}

// run runs tasks [0, n) on a pool of Parallelism workers that take task
// slots from a shared counter, each with scratch of its own, and merges
// what their instances decided into the report. The instances never write
// shared state: each task writes its own result.
func (r *parallelRun) run(n int, task func(slot int, w *worker, out *taskResult)) ([]Assignment, *Report, error) {
	r.isp = r.obs.BeginSpan(r.sp, "instances", engine.SpanRepair)
	results := make([]taskResult, n)
	var wg sync.WaitGroup
	var next atomic.Int64
	for range min(r.opts.Parallelism, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var w worker
			for slot := int(next.Add(1) - 1); slot < n; slot = int(next.Add(1) - 1) {
				task(slot, &w, &results[slot])
			}
		}()
	}
	wg.Wait()
	r.isp.End()

	report := &Report{}
	total := 0
	for i := range results {
		if results[i].err != nil {
			return nil, nil, results[i].err
		}
		total += len(results[i].assignments)
	}
	all := slices.Grow([]Assignment(nil), total)
	for i := range results {
		res := &results[i]
		report.Components += res.components
		report.SplitComponents += res.splits
		report.Conflicts += res.conflicts
		all = append(all, res.assignments...)
	}
	all = dedupeAssignments(all)
	sortAssignments(all)
	report.Assignments = len(all)
	r.sp.Attr(engine.AttrComponents, int64(report.Components))
	r.sp.Attr(engine.AttrSplitComponents, int64(report.SplitComponents))
	r.sp.Attr(engine.AttrConflicts, int64(report.Conflicts))
	r.sp.Attr(engine.AttrAssignments, int64(report.Assignments))
	return all, report, nil
}

// instance runs one repair instance over comp, task slot's next component,
// under an "instance" span (its parent passed explicitly: instances begin
// concurrently, so the observer's scoped nesting cannot apply), splitting
// the component k-ways when it exceeds MaxComponentSize. A panic becomes
// the task's error; after a task's first error its later components are
// not repaired.
func (r *parallelRun) instance(slot int, comp []model.FixSet, out *taskResult) {
	if out.err != nil {
		return
	}
	out.components++
	esp := r.obs.BeginSpan(r.isp, "instance", engine.SpanRepair)
	var as []Assignment
	conflicts := 0
	defer func() {
		esp.Attr(engine.AttrPart, int64(slot))
		esp.Attr(engine.AttrAssignments, int64(len(as)))
		esp.Attr(engine.AttrConflicts, int64(conflicts))
		esp.End()
		if p := recover(); p != nil {
			out.err = fmt.Errorf("repair: instance %d of task %d panicked: %v", out.components, slot, p)
		}
	}()
	var err error
	if r.opts.MaxComponentSize > 0 && len(comp) > r.opts.MaxComponentSize {
		out.splits++
		as, conflicts, err = repairSplit(comp, r.algo, r.opts, r.obs, esp)
		out.conflicts += conflicts
	} else {
		as, err = repairWith(r.algo, comp, r.obs, esp)
	}
	if err != nil {
		out.err = err
		return
	}
	if out.assignments == nil {
		out.assignments = as // a task's only component, or its first
	} else {
		out.assignments = append(out.assignments, as...)
	}
}

// gatherComponents lays the fix sets out component by component,
// components in ID order and each in fix-set index order; component c is
// sets[bounds[c]:bounds[c+1]]. A component's ID is its smallest fix-set
// index, so when the IDs never decrease the components are already
// contiguous runs and sets is fixSets itself. Otherwise one counting sort,
// indexed directly by the IDs, copies them into a new slice. fixSets is
// never written.
func gatherComponents(fixSets []model.FixSet, comp []int32) (sets []model.FixSet, bounds []int) {
	sets = fixSets
	var order []int32 // when copying, the fix set at each position
	if !slices.IsSorted(comp) {
		order, _ = countingSort(comp, len(comp), nil, nil)
		sets = make([]model.FixSet, len(fixSets))
	}
	for p := range comp {
		i := p
		if order != nil {
			i = int(order[p])
			sets[p] = fixSets[i]
		}
		if int(comp[i]) == i { // a component's first fix set
			bounds = append(bounds, p)
		}
	}
	return sets, append(bounds, len(fixSets))
}

// repairWith runs one repair instance, routing span-reporting algorithms
// through RepairSpanned with the explicit parent the concurrent-span
// contract requires.
func repairWith(algo Algorithm, component []model.FixSet, obs engine.Observer, parent engine.Span) ([]Assignment, error) {
	if sa, ok := algo.(SpanAlgorithm); ok {
		return sa.RepairSpanned(component, obs, parent)
	}
	return algo.Repair(component)
}

// repairSplit handles one oversized component: split it k-ways with the
// greedy hypergraph partitioner, run the algorithm per part, and reconcile
// under the master-immutable protocol. Each reconciliation iteration is
// reported as a span under parent (explicitly — the caller runs
// concurrently with its sibling instances).
func repairSplit(comp []model.FixSet, algo Algorithm, opts Options, obs engine.Observer, parent engine.Span) ([]Assignment, int, error) {
	keys := make([][]model.CellKey, len(comp))
	for i := range comp {
		keys[i] = cellKeysOfFixSet(comp[i])
	}
	parts := partitionKWay(keys, opts.KParts)

	// immutable holds settled cell values; once a cell lands here it can
	// never change, which guarantees the loop reaches a fixpoint.
	immutable := map[model.CellKey]model.Value{}
	var accepted []Assignment
	conflicts := 0

	pending := make([][]model.FixSet, len(parts))
	pendingKeys := make([][][]model.CellKey, len(parts))
	for pi, part := range parts {
		sub := make([]model.FixSet, len(part))
		subKeys := make([][]model.CellKey, len(part))
		for j, e := range part {
			sub[j] = comp[e]
			subKeys[j] = keys[e]
		}
		pending[pi] = sub
		pendingKeys[pi] = subKeys
	}

	for iter := 0; iter < opts.MaxReconcileIters; iter++ {
		rsp := obs.BeginSpan(parent, "reconcile", engine.SpanRepair)
		conflictsBefore := conflicts
		anyPending := false
		progressed := false
		for pi := range pending {
			if len(pending[pi]) == 0 {
				continue
			}
			anyPending = true
			as, err := repairWith(algo, pending[pi], obs, rsp)
			if err != nil {
				rsp.End()
				return nil, conflicts, err
			}
			var redo []model.FixSet
			var redoKeys [][]model.CellKey
			conflicted := map[model.CellKey]bool{}
			for _, a := range as {
				k := a.CellKey()
				if v, settled := immutable[k]; settled {
					if !v.Equal(a.Value) {
						// Contradicts an immutable (master/earlier) change:
						// undo and retry next iteration.
						conflicts++
						conflicted[k] = true
					}
					continue
				}
				immutable[k] = a.Value
				accepted = append(accepted, a)
				progressed = true
			}
			if len(conflicted) > 0 {
				// Re-queue the fix sets whose repairs were undone, with the
				// settled values substituted in so the retry proposes
				// repairs consistent with the master's choices.
				for fi, fs := range pending[pi] {
					for _, k := range pendingKeys[pi][fi] {
						if conflicted[k] {
							redo = append(redo, substituteSettled(fs, immutable))
							redoKeys = append(redoKeys, pendingKeys[pi][fi])
							break
						}
					}
				}
			}
			pending[pi] = redo
			pendingKeys[pi] = redoKeys
		}
		rsp.Attr(engine.AttrConflicts, int64(conflicts-conflictsBefore))
		rsp.Attr(engine.AttrAssignments, int64(len(accepted)))
		rsp.End()
		if !anyPending {
			break
		}
		if !progressed {
			// Every remaining repair contradicts settled values; the
			// conflicting fixes are dropped (their cells are frozen).
			break
		}
	}
	sortAssignments(accepted)
	return accepted, conflicts, nil
}

// substituteSettled rewrites a fix set so every cell that has a settled
// (immutable) value carries it, letting a retried repair instance reason
// from the master's state instead of the stale captured values. Detected
// cells are shared with the caller's fix sets and never written, so the
// rewrite builds new cells for the violation and for each fix.
func substituteSettled(fs model.FixSet, settled map[model.CellKey]model.Value) model.FixSet {
	subCell := func(c model.Cell) model.Cell {
		if v, ok := settled[c.MapKey()]; ok {
			c.Value = v
		}
		return c
	}
	out := model.FixSet{Violation: model.Violation{RuleID: fs.Violation.RuleID}}
	for _, c := range fs.Violation.Cells {
		out.Violation.Cells = append(out.Violation.Cells, subCell(c))
	}
	for _, f := range fs.Fixes {
		if f.RightIsCell {
			f = model.NewCellFix(subCell(f.Left()), f.Op, subCell(f.RightCell()))
		} else {
			f = model.NewConstFix(subCell(f.Left()), f.Op, f.Const())
		}
		out.Fixes = append(out.Fixes, f)
	}
	return out
}
