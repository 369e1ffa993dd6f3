package core

import (
	"fmt"

	"bigdansing/internal/engine"
	"bigdansing/internal/model"
	"bigdansing/internal/storage"
)

// DetectRuleFromStore runs a rule's detection over a dataset stored in the
// storage manager, exploiting the pushdowns of Appendix F:
//
//   - Block pushdown: when the rule declares its blocking attribute
//     (Rule.BlockAttr) and the store holds a replica content-partitioned on
//     that attribute, every block is fully contained in one storage
//     partition, so partitions are detected independently — no shuffle
//     crosses partition boundaries ("BigDansing can push down the Block
//     operator to the storage manager").
//   - Otherwise the best available replica is read whole and detection
//     falls back to the normal shuffled plan.
//
// The returned bool reports whether the pushdown was used.
func DetectRuleFromStore(ctx *engine.Context, st *storage.Store, dataset string, r *Rule) (*DetectResult, bool, error) {
	if err := r.Validate(); err != nil {
		return nil, false, err
	}
	replicas, err := st.Replicas(dataset)
	if err != nil {
		return nil, false, err
	}
	pick := ""
	havePushdown := false
	for _, rep := range replicas {
		if r.BlockAttr != "" && rep == r.BlockAttr {
			pick = rep
			havePushdown = true
			break
		}
	}
	if !havePushdown {
		if len(replicas) == 0 {
			return nil, false, fmt.Errorf("core: dataset %q has no stored replicas", dataset)
		}
		pick = replicas[0]
	}

	if !havePushdown || r.Block == nil {
		res, err := detectFromReplica(ctx, st, dataset, pick, -1, r)
		return res, false, err
	}

	// Pushdown path: iterate the replica's partitions; blocks never span
	// partitions because the partitioner and the blocking key agree.
	plan, err := st.Plan(dataset, pick)
	if err != nil {
		return nil, false, err
	}
	var lists [][]model.FixSet
	for p := 0; p < plan.Partitions; p++ {
		res, err := detectFromReplica(ctx, st, dataset, pick, p, r)
		if err != nil {
			return nil, false, err
		}
		if res != nil {
			lists = append(lists, res.FixSets)
		}
	}
	return assemble([]detected{{lists: lists}}), true, nil
}

// detectFromReplica reads one partition (or, with part -1, the whole
// replica) and detects r over it. An empty single partition returns
// (nil, nil) so the pushdown loop can skip it without planning anything.
func detectFromReplica(ctx *engine.Context, st *storage.Store, dataset, replica string, part int, r *Rule) (*DetectResult, error) {
	rel, err := st.Read(dataset, replica, storage.ReadOptions{Partition: part})
	if err != nil {
		return nil, err
	}
	if rel.Len() == 0 && part >= 0 {
		return nil, nil
	}
	return DetectRule(ctx, r, rel)
}
