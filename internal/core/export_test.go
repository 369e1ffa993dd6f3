package core

import (
	"slices"

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
// supplied, so a test can force every key to collide.
var AssembleHashed = assembleHashed
