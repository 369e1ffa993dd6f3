package core

import (
	"slices"

	"bigdansing/internal/engine"
	"bigdansing/internal/model"
)

// BlockIndex exposes rule i's block-membership state: each tuple's block
// key, and each non-empty block's member IDs in ascending order, so a test
// can compare the state an incremental history left with the one a fresh
// prime builds.
func (d *IncrementalDetector) BlockIndex(i int) (map[int64]model.ValueKey, map[model.ValueKey][]int64) {
	st := d.state[i]
	keys := make(map[int64]model.ValueKey, len(st.keyOf))
	for id, b := range st.keyOf {
		keys[id] = b.key
	}
	members := map[model.ValueKey][]int64{}
	for k, b := range st.blocks {
		if len(b.members) > 0 {
			members[k] = slices.Sorted(slices.Values(b.members))
		}
	}
	return keys, members
}

// AssembleHashed exposes the hand-off's assembler with its seen-set hash
// supplied, so a test can force every key to collide. Each list becomes one
// group's output, with the fixes its fix sets carry; the lists are one
// source that may repeat violations, so every fix set is hashed.
func AssembleHashed(lists [][]model.FixSet, hash func(model.ViolationKey) uint64) *DetectResult {
	outs := make([]Output, len(lists))
	for i, sets := range lists {
		vs := make([]model.Violation, len(sets))
		for j, fs := range sets {
			vs[j] = fs.Violation
		}
		outs[i] = outputOf(vs)
		k := 0
		outs[i].genFix(func(dst []model.Fix, _ model.Violation) []model.Fix {
			k++
			return append(dst, sets[k-1].Fixes...)
		})
	}
	return assembleHashed([]detected{{parts: [][]Output{outs}}}, hash)
}

// RunJobSpark validates, plans by rule shape and executes a job.
func RunJobSpark(ctx *engine.Context, j *Job) (*DetectResult, error) {
	return detect(ctx, func() (*LogicalPlan, error) { return BuildPlan(j) })
}

// ListItem wraps a list of units.
func ListItem(ts []model.Tuple) Item { return Item{Kind: ItemList, Tuples: ts} }

// PairsAcross is the default Iterate for two co-grouped streams: the cross
// pairs between the left and right bags of one key (the CoBlock pattern of
// Figure 6).
func PairsAcross(blocks [][]model.Tuple) []Item {
	if len(blocks) < 2 {
		return nil
	}
	return enumerated(func(d DetectFunc) { pairsAcross(d, blocks[0], blocks[1], nil) })
}

// Singles is the Iterate for unary rules: each unit is its own candidate.
func Singles(blocks [][]model.Tuple) []Item {
	if len(blocks) == 0 {
		return nil
	}
	out := make([]Item, 0, len(blocks[0]))
	for _, t := range blocks[0] {
		out = append(out, Single(t))
	}
	return out
}

// JoinDetect runs Detect over one OCJoin task as the executor does.
var JoinDetect = joinDetect

// GenFix runs GenFix over the output's violations as the executor does.
func (o *Output) GenFix(genfix GenFixFunc) { o.genFix(genfix) }

// Len is the number of violations emitted so far.
func (o *Output) Len() int { return len(o.ends) }

// CellsCap is the capacity of the output's cells slab.
func (o *Output) CellsCap() int { return cap(o.cells) }

// Unique reports whether the executor hands the pipeline's output to
// repair without hashing it for repeats.
func (p *PhysicalPipeline) Unique() bool { return p.unique() }

// outputOf copies violations into one output, its slabs at exact size.
func outputOf(vs []model.Violation) Output {
	n := 0
	for _, v := range vs {
		n += len(v.Cells)
	}
	o := Output{cells: make([]model.Cell, 0, n), ends: make([]outEnd, 0, len(vs))}
	for _, v := range vs {
		copy(o.Add(v.RuleID, len(v.Cells)), v.Cells)
	}
	return o
}

// SourceBlocks is the view's incremental rule source i (in rule order,
// fallback rules skipped) as a view by block over its violating blocks,
// whether or not the view itself is by block, so a test can take any
// blocked rule's components from its blocks.
func (v *DetectView) SourceBlocks(i int) *DetectView {
	return &DetectView{full: &DetectResult{}, blocks: v.srcs[i].parts[0]}
}
