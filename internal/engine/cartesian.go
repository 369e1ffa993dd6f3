package engine

// PairOf is an ordered pair of same-typed elements, the output unit of the
// cartesian transformations below.
type PairOf[T any] struct {
	Left, Right T
}

// JoinRow is one matched pair of Cartesian.
type JoinRow[A, B any] struct {
	Left  A
	Right B
}

// Cartesian computes the full cross product of two datasets: every (a, b).
// The right side is collected and broadcast to every left partition, the
// strategy Spark uses when one side is small. Collecting the right side is
// a stage boundary; the pair expansion over the left side is lazy and fuses
// with the left side's pending chain and downstream narrow ops.
func Cartesian[A, B any](da *Dataset[A], db *Dataset[B]) *Dataset[JoinRow[A, B]] {
	ctx := da.ctx
	right, err := db.Collect()
	if err != nil {
		return errDataset[JoinRow[A, B]](ctx, err)
	}
	// Exchange regime: the right side is broadcast to the workers owning
	// the left partitions and the pair expansion runs worker-local over
	// the opaque encodings (the cross product is pure concatenation, so
	// the workers need no codecs). The result is materialized; contents
	// and per-partition order match the lazy in-process expansion.
	if ctx.exchange != nil {
		ac, err := exchangeCodec[A]("cartesian")
		if err != nil {
			return errDataset[JoinRow[A, B]](ctx, err)
		}
		bc, err := exchangeCodec[B]("cartesian")
		if err != nil {
			return errDataset[JoinRow[A, B]](ctx, err)
		}
		left, err := da.forced()
		if err != nil {
			return errDataset[JoinRow[A, B]](ctx, err)
		}
		ctx.obs.Count(MetricRecordsShuffled, int64(len(right))*int64(len(left)))
		out, err := exchangeCartesian(ctx, left, right, ac, bc)
		if err != nil {
			return errDataset[JoinRow[A, B]](ctx, err)
		}
		return fromParts(ctx, out)
	}
	ctx.obs.Count(MetricRecordsShuffled, int64(len(right))*int64(da.NumPartitions()))
	return FlatMap(da, func(a A) []JoinRow[A, B] {
		out := make([]JoinRow[A, B], len(right))
		for i, b := range right {
			out[i] = JoinRow[A, B]{Left: a, Right: b}
		}
		return out
	})
}

// SelfCartesian materializes all ordered pairs (a_i, a_j) with i != j of one
// dataset: n*(n-1) pairs. It is the naive CrossProduct physical operator the
// evaluation's Figure 11(c) ablates against.
func SelfCartesian[T any](d *Dataset[T]) *Dataset[PairOf[T]] {
	all, err := d.Collect()
	if err != nil {
		return errDataset[PairOf[T]](d.ctx, err)
	}
	nParts := d.NumPartitions()
	d.ctx.obs.Count(MetricRecordsShuffled, int64(len(all))*int64(nParts))
	// Index the elements so each partition can skip self-pairs globally.
	type indexed struct {
		pos int
		v   T
	}
	idx := make([]indexed, len(all))
	for i, v := range all {
		idx[i] = indexed{pos: i, v: v}
	}
	di := Parallelize(d.ctx, idx, nParts)
	return FlatMap(di, func(a indexed) []PairOf[T] {
		out := make([]PairOf[T], 0, len(all)-1)
		for j, b := range all {
			if j == a.pos {
				continue
			}
			out = append(out, PairOf[T]{Left: a.v, Right: b})
		}
		return out
	})
}

// SelfCartesianUnique materializes the unordered unique pairs (a_i, a_j)
// with i < j: n*(n-1)/2 pairs. This is the selfCartesian() extension the
// paper added to Spark to implement UCrossProduct (Appendix G.1).
func SelfCartesianUnique[T any](d *Dataset[T]) *Dataset[PairOf[T]] {
	all, err := d.Collect()
	if err != nil {
		return errDataset[PairOf[T]](d.ctx, err)
	}
	nParts := d.NumPartitions()
	d.ctx.obs.Count(MetricRecordsShuffled, int64(len(all))*int64(nParts))
	type indexed struct {
		pos int
		v   T
	}
	idx := make([]indexed, len(all))
	for i, v := range all {
		idx[i] = indexed{pos: i, v: v}
	}
	di := Parallelize(d.ctx, idx, nParts)
	return FlatMap(di, func(a indexed) []PairOf[T] {
		if a.pos+1 >= len(all) {
			return nil
		}
		out := make([]PairOf[T], 0, len(all)-a.pos-1)
		for _, b := range all[a.pos+1:] {
			out = append(out, PairOf[T]{Left: a.v, Right: b})
		}
		return out
	})
}
