package core

import (
	"bigdansing/internal/engine"
	"bigdansing/internal/model"
)

// RunPlanOnBatches is DetectRuleOnBatches with the plan supplied, so the
// executor oracle (package core_test) can run storage batches under every
// grouping.
func RunPlanOnBatches(ctx *engine.Context, pp *PhysicalPlan, rel *model.Relation, batches []*model.Batch) (*DetectResult, error) {
	ex := newSparkExec(ctx)
	ex.pre[rel] = batches
	return ex.run(pp)
}

// AssembleHashed exposes the hand-off's assembler with its seen-set hash
// supplied, so a test can force every key to collide.
var AssembleHashed = assembleHashed
