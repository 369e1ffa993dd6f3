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
// supplied, so a test can force every key to collide. The lists are one
// source that may repeat violations, so every fix set is hashed.
func AssembleHashed(lists [][]model.FixSet, hash func(model.ViolationKey) uint64) *DetectResult {
	return assembleHashed([]detected{{lists: lists}}, hash)
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
	return enumerated(func(d DetectFunc) { pairsAcross(d, blocks[0], blocks[1]) })
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
