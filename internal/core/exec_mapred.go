package core

import (
	"bigdansing/internal/engine"
	"bigdansing/internal/mapred"
	"bigdansing/internal/model"
)

// RunPlanMapReduce executes the physical plan on the disk backend (Appendix
// G.2): the same executor as RunPlanSpark, on a context whose exchange is
// eng, so every Block/CoBlock shuffle, range partitioning and cross product
// materialises as run files on disk. Every physical operator is supported
// and results are identical to the in-memory backend's.
//
// nReduce is the context's parallelism: the partition count of every scan
// and shuffle and the number of tasks running at once; <= 0 means
// eng.Workers(). nSplits is accepted for API compatibility and not used:
// the one executor reads a relation in as many partitions as it shuffles it
// into.
//
// The engine stays the caller's: the context built here is dropped without
// Close, which would close eng (see engine.Config.Exchange).
func RunPlanMapReduce(eng *mapred.Engine, pp *PhysicalPlan, nSplits, nReduce int) (*DetectResult, error) {
	if nReduce <= 0 {
		nReduce = eng.Workers()
	}
	ctx, err := engine.NewContext(engine.Config{Parallelism: nReduce, Exchange: eng})
	if err != nil {
		return nil, err
	}
	return RunPlanSpark(ctx, pp)
}

// DetectRuleMapReduce plans one rule and runs it on the disk backend.
func DetectRuleMapReduce(eng *mapred.Engine, r *Rule, rel *model.Relation, nSplits, nReduce int) (*DetectResult, error) {
	lp, err := PlanRule(r, rel)
	if err != nil {
		return nil, err
	}
	pp, err := NewPlanner().Plan(lp)
	if err != nil {
		return nil, err
	}
	return RunPlanMapReduce(eng, pp, nSplits, nReduce)
}
