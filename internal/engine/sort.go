package engine

// RangePartitionBy redistributes elements into n partitions such that all
// elements of partition i precede those of partition i+1 under less, without
// sorting within partitions. Boundaries are chosen by deterministic sampling
// (every k-th element), good enough for the balanced partitioning OCJoin's
// partitioning phase requires. It is a stage boundary: the input is forced
// (running any pending narrow chain as one fused stage) before sampling.
// Under a memory budget the scatter spills to disk; the output is
// element-for-element identical to the in-memory path's. Records that move,
// through an exchange or a spill, are encoded as d's MovedAs appender writes
// them.
func RangePartitionBy[T any](d *Dataset[T], less func(a, b T) bool, n int) *Dataset[T] {
	if n <= 0 {
		n = d.ctx.parallelism
	}
	dparts, err := d.forced()
	if err != nil {
		return d
	}
	total := 0
	for _, p := range dparts {
		total += len(p)
	}
	if total == 0 {
		return fromParts(d.ctx, make([][]T, n))
	}
	if n == 1 {
		all, _ := d.Collect()
		return fromParts(d.ctx, [][]T{all})
	}

	bounds := sampleBounds(dparts, total, n, less)
	target := boundsTarget(bounds, less)

	// Exchange regime: the range scatter moves its encoded records through
	// the exchange, preserving (source, record) order per destination like
	// the in-memory path, and each destination decodes its gathered run
	// straight into its partition.
	if d.ctx.exchange != nil {
		c, err := exchangeCodec[T]("rangePartition")
		if err != nil {
			return errDataset[T](d.ctx, err)
		}
		runs, counts, err := exchangeScatter(d.ctx, "rangePartition", dparts, n, target, movedCodec(c, d.wire).Append)
		var out [][]T
		if err == nil {
			out, err = decodeRuns(d.ctx, "rangePartition", runs, counts, true, c.Decode)
		}
		if err != nil {
			return errDataset[T](d.ctx, err)
		}
		return fromParts(d.ctx, out)
	}

	if d.ctx.mem != nil {
		if c, ok := codecFor[T](); ok {
			out, serr := scatterSpill(d.ctx, "rangePartition", dparts, n, keepRoute(target), movedCodec(c, d.wire))
			if serr != nil {
				return errDataset[T](d.ctx, serr)
			}
			return fromParts(d.ctx, out)
		}
	}

	// One index scatter, then each destination copies its records once,
	// straight from the source partitions.
	rt, err := indexScatter(d.ctx, "rangePartition", dparts, n, target)
	if err != nil {
		return errDataset[T](d.ctx, err)
	}
	out := make([][]T, n)
	gerr := d.ctx.runStage("rangePartition:gather", n, func(tk *taskCtx) {
		bucket := make([]T, 0, routedLen(rt, dparts, tk.part))
		for v := range routed(rt, dparts, tk.part, identity[T]) {
			bucket = append(bucket, v)
		}
		tk.shuffled += int64(len(bucket))
		tk.recordsOut = int64(len(bucket))
		out[tk.part] = bucket
	})
	if gerr != nil {
		return errDataset[T](d.ctx, gerr)
	}
	return fromParts(d.ctx, out)
}
