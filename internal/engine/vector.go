package engine

// Vectorized (batch-at-a-time) narrow operators. The engine stays agnostic
// of what a batch holds — any element type whose values report a live-row
// count can flow through these kernels — so the columnar layout itself
// (model.Batch) lives in the model package and the engine only needs the
// RowCounted seam. Batch kernels fuse into narrow chains exactly like their
// tuple-at-a-time counterparts: one kernel call per batch per stage, with
// the selection bitmap (not tuple allocation) carrying filter decisions.

// RowCounted is implemented by batch element types (notably *model.Batch):
// LiveRows reports how many rows the element currently carries. The engine
// uses it to account records-in/records-out in rows rather than batches, so
// -stats, -explain and traces stay truthful when stages move batches. It
// must be nil-safe for pointer implementations — the engine probes the
// type's zero value.
type RowCounted interface {
	LiveRows() int
}

// rowsOf counts the records of a partition: the summed live rows when the
// element type is batch-shaped, the element count otherwise. The type probe
// runs once per call (on the zero value), not per element, and for pointer
// implementations the per-element interface conversion allocates nothing.
func rowsOf[T any](s []T) int64 {
	var zero T
	if _, ok := any(zero).(RowCounted); !ok {
		return int64(len(s))
	}
	var n int64
	for _, v := range s {
		if rc, ok := any(v).(RowCounted); ok {
			n += int64(rc.LiveRows())
		}
	}
	return n
}

// FilterBatches records a vectorized selection: the kernel narrows each
// batch (typically by flipping selection bits on a CloneSel copy) and
// returns the narrowed batch, or one with no live rows to drop it — emptied
// batches are removed from the stream so downstream kernels never see them.
// It is the batch analogue of Filter and fuses the same way.
func FilterBatches[B RowCounted](d *Dataset[B], kernel func(B) B) *Dataset[B] {
	base := narrowBase(d)
	if base.err != nil {
		return d
	}
	op := opLabel("FilterBatches", base.ops)
	feed := base.feed
	return lazyFrom(d.ctx, base.src, appendOp(base.ops, "FilterBatches"), base.bounded, func(p int, tk *taskCtx, emit func(B)) {
		feed(p, tk, func(b B) {
			tk.op = op
			out := kernel(b)
			if out.LiveRows() > 0 {
				emit(out)
			}
		})
	})
}

// FlatMapBatches records the batch-wise expansion of f — the vectorized
// FlatMap: one kernel call turns a whole batch into per-row outputs
// (violations, keyed pairs at a shuffle boundary). Lazy and fusable like
// FlatMap.
func FlatMapBatches[B, U any](d *Dataset[B], f func(B) []U) *Dataset[U] {
	base := narrowBase(d)
	if base.err != nil {
		return errDataset[U](d.ctx, base.err)
	}
	op := opLabel("FlatMapBatches", base.ops)
	feed := base.feed
	return lazyFrom(d.ctx, base.src, appendOp(base.ops, "FlatMapBatches"), false, func(p int, tk *taskCtx, emit func(U)) {
		feed(p, tk, func(b B) {
			tk.op = op
			for _, u := range f(b) {
				emit(u)
			}
		})
	})
}
