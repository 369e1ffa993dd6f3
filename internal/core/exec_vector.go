package core

import (
	"fmt"
	"slices"

	"bigdansing/internal/engine"
	"bigdansing/internal/model"
)

// This file is the executor's batch source: column batches are a scan
// format, read only when the context configures a batch size and a batch
// kernel consumes them (see sparkExec.batchScan). Everything from the
// shuffle on is the one pipeline body of exec_spark.go.

// batchStream materializes a branch's scan as column batches, mirroring
// branchStream: the base relation is chunked once per column set (windowing
// pre-built storage batches zero-copy), the Scope kernel runs as one fused
// FilterBatches stage, and the scoped batches are cached per scan.
func (ex *sparkExec) batchStream(pp *PhysicalPlan, p *PhysicalPipeline, b Branch) (*engine.Dataset[*model.Batch], error) {
	rel, key, err := ex.scan(pp, b)
	if err != nil {
		return nil, err
	}
	key.cols = scanColsKey(p.Vec.ScanCols)
	if d, ok := ex.batches[key]; ok {
		return d, nil
	}
	var d *engine.Dataset[*model.Batch]
	if len(b.Scopes) == 0 {
		var bs []*model.Batch
		switch pre := ex.pre[rel]; {
		case len(pre) > 0:
			bs = rechunk(pre, ex.batchSize)
		case p.Vec.ScanCols == nil:
			bs = model.MakeBatches(rel.Tuples, rel.Schema.Len(), ex.batchSize)
		default:
			bs = model.MakeBatchesCols(rel.Tuples, rel.Schema.Len(), ex.batchSize, p.Vec.ScanCols...)
		}
		d = engine.Parallelize(ex.ctx, bs, 0)
	} else {
		base, err := ex.batchStream(pp, p, Branch{Dataset: b.Dataset})
		if err != nil {
			return nil, err
		}
		d = engine.FilterBatches(base, p.Vec.Scope)
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("core: Scope failed: %w", err)
		}
	}
	ex.batches[key] = d
	return d, nil
}

// scanColsKey canonicalizes the column vectors a batch scan materializes
// ("*" for every column, when the kernels declared none).
func scanColsKey(cols []int) string {
	if cols == nil {
		return "*"
	}
	s := slices.Compact(slices.Sorted(slices.Values(cols)))
	return fmt.Sprint(s)
}

// rechunk re-windows pre-built batches (typically one per storage
// partition) into batches of at most size rows. Windows share the
// originals' column vectors — no value is copied.
func rechunk(pre []*model.Batch, size int) []*model.Batch {
	out := make([]*model.Batch, 0, len(pre))
	for _, b := range pre {
		n := b.Len()
		switch {
		case n == 0:
			// skip
		case n <= size:
			out = append(out, b)
		default:
			for lo := 0; lo < n; lo += size {
				hi := lo + size
				if hi > n {
					hi = n
				}
				out = append(out, b.Slice(lo, hi))
			}
		}
	}
	return out
}

// DetectRuleOnBatches plans and runs one rule over a relation whose data
// arrives as pre-built column batches — the storage batch reader's output.
// Batch scans read them zero-copy; every other scan (including all of them
// when no batch size is configured) materializes the tuples once, so the
// result is identical either way. rel carries the schema and name; its
// Tuples may be empty.
func DetectRuleOnBatches(ctx *engine.Context, r *Rule, rel *model.Relation, batches []*model.Batch) (*DetectResult, error) {
	pp, err := compilePlan(ctx, nil, func() (*LogicalPlan, error) { return PlanRule(r, rel) })
	if err != nil {
		return nil, err
	}
	ex := newSparkExec(ctx)
	ex.pre[rel] = batches
	return ex.run(pp)
}
