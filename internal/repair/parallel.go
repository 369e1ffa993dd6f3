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
	if opts.Parallelism <= 0 {
		opts.Parallelism = 4
	}
	if opts.KParts <= 0 {
		opts.KParts = 2
	}
	if opts.MaxReconcileIters <= 0 {
		opts.MaxReconcileIters = 10
	}
	obs := opts.Observer
	if obs == nil {
		obs = engine.Discard
	}
	report := &Report{}
	if len(fixSets) == 0 {
		return nil, report, nil
	}
	sp := obs.BeginSpan(nil, "repair", engine.SpanRepair)
	defer sp.End()
	sp.Attr(engine.AttrAlgorithm, AlgorithmCode(algo.Name()))

	// 1-2. Connected components, laid out component by component.
	csp := obs.BeginSpan(sp, "components", engine.SpanRepair)
	sets, bounds := gatherComponents(fixSets, fixSetComponents(fixSets))
	nComp := len(bounds) - 1
	report.Components = nComp
	csp.Attr(engine.AttrComponents, int64(nComp))
	csp.End()

	// 3-4. Repair instances in parallel, one per component, run by a pool
	// of Parallelism workers that take component slots from a shared
	// counter: each instance gets its component's window of the gathered
	// fix sets. Instance spans pass their parent explicitly — they begin
	// concurrently, so the observer's scoped nesting cannot apply. Per-slot
	// conflict counts are summed after the join; the instances never write
	// shared state.
	isp := obs.BeginSpan(sp, "instances", engine.SpanRepair)
	results := make([][]Assignment, nComp)
	errs := make([]error, nComp)
	splits := make([]bool, nComp)
	conflicts := make([]int, nComp)
	instance := func(slot int) {
		lo, hi := bounds[slot], bounds[slot+1]
		esp := obs.BeginSpan(isp, "instance", engine.SpanRepair)
		defer func() {
			esp.Attr(engine.AttrPart, int64(slot))
			esp.Attr(engine.AttrAssignments, int64(len(results[slot])))
			esp.Attr(engine.AttrConflicts, int64(conflicts[slot]))
			esp.End()
			if r := recover(); r != nil {
				errs[slot] = fmt.Errorf("repair: instance for component %d of %d panicked: %v", slot, nComp, r)
			}
		}()
		comp := sets[lo:hi:hi]
		if opts.MaxComponentSize > 0 && len(comp) > opts.MaxComponentSize {
			splits[slot] = true
			as, nc, err := repairSplit(comp, algo, opts, obs, esp)
			conflicts[slot] = nc
			results[slot], errs[slot] = as, err
			return
		}
		as, err := repairWith(algo, comp, obs, esp)
		results[slot], errs[slot] = as, err
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	for range min(opts.Parallelism, nComp) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for slot := int(next.Add(1) - 1); slot < nComp; slot = int(next.Add(1) - 1) {
				instance(slot)
			}
		}()
	}
	wg.Wait()
	isp.End()
	total := 0
	for i := range results {
		if errs[i] != nil {
			return nil, nil, errs[i]
		}
		total += len(results[i])
	}
	all := slices.Grow([]Assignment(nil), total)
	for i := range results {
		if splits[i] {
			report.SplitComponents++
		}
		report.Conflicts += conflicts[i]
		all = append(all, results[i]...)
	}
	all = dedupeAssignments(all)
	sortAssignments(all)
	report.Assignments = len(all)
	sp.Attr(engine.AttrComponents, int64(report.Components))
	sp.Attr(engine.AttrSplitComponents, int64(report.SplitComponents))
	sp.Attr(engine.AttrConflicts, int64(report.Conflicts))
	sp.Attr(engine.AttrAssignments, int64(report.Assignments))
	return all, report, nil
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
		order, _ = countingSort(comp, len(comp))
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
