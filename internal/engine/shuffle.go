package engine

import "sync"

// shuffleScratch holds the per-task index arrays of one scatter pass. The
// arrays are sized to the partition being scattered and reused across
// stages via a sync.Pool, so steady-state shuffles allocate only the
// buckets they hand downstream, not their working memory.
type shuffleScratch struct {
	dsts   []uint32
	counts []int
}

var scratchPool = sync.Pool{New: func() any { return new(shuffleScratch) }}

// grab returns the pooled scratch with dsts sized to rows and counts sized
// (and zeroed) to n destinations.
func grabScratch(rows, n int) *shuffleScratch {
	s := scratchPool.Get().(*shuffleScratch)
	if cap(s.dsts) < rows {
		s.dsts = make([]uint32, rows)
	}
	s.dsts = s.dsts[:rows]
	if cap(s.counts) < n {
		s.counts = make([]int, n)
	} else {
		s.counts = s.counts[:n]
		for i := range s.counts {
			s.counts[i] = 0
		}
	}
	return s
}

// Pair is a key-value record, the currency of wide transformations.
type Pair[K comparable, V any] struct {
	Key   K
	Value V
}

// KV builds a Pair.
func KV[K comparable, V any](k K, v V) Pair[K, V] { return Pair[K, V]{Key: k, Value: v} }

// KeyBy turns a dataset into a pair dataset using a key extractor.
func KeyBy[T any, K comparable](d *Dataset[T], key func(T) K) *Dataset[Pair[K, T]] {
	return Map(d, func(t T) Pair[K, T] { return KV(key(t), t) })
}

// shuffleByKey hash-partitions pairs into n buckets by key. This is the wide
// dependency every group/join transformation shares: each input partition
// scatters its records, then the buckets are concatenated per target. It
// forces the input (running any pending narrow chain as one fused stage).
// Scatter computes each record's destination once into an index array and
// sizes every per-destination bucket exactly before filling it; gather
// preallocates each output bucket to its exact total — the shuffle path
// performs no growing appends.
func shuffleByKey[K comparable, V any](d *Dataset[Pair[K, V]], n int) ([][]Pair[K, V], error) {
	if n <= 0 {
		n = d.ctx.parallelism
	}
	parts, err := d.forced()
	if err != nil {
		return nil, err
	}
	// Exchange regime: the codec-encoded records cross process boundaries
	// (or the disk) through the exchange; destinations are computed
	// coordinator-side (the key hash), so workers never need type knowledge.
	// Takes precedence over the spill regime — the workers are where the
	// memory lives on that backend.
	if d.ctx.exchange != nil {
		kc, err := exchangeCodec[K]("shuffle")
		if err != nil {
			return nil, err
		}
		vc, err := exchangeCodec[V]("shuffle")
		if err != nil {
			return nil, err
		}
		return exchangeScatter(d.ctx, "shuffle", parts, n, pairCodec(kc, vc),
			func(p Pair[K, V]) int { return int(hashKey(p.Key) % uint64(n)) })
	}
	if d.ctx.mem != nil {
		if kc, ok := codecFor[K](); ok {
			if vc, ok := codecFor[V](); ok {
				return scatterSpill(d.ctx, "shuffle", parts, n,
					func(p Pair[K, V]) int { return int(hashKey(p.Key) % uint64(n)) },
					pairCodec(kc, vc), nil)
			}
		}
	}
	// scatter[src][dst] collects records from source partition src bound for
	// destination dst; writing per-source keeps the stage lock-free.
	scatter := make([][][]Pair[K, V], len(parts))
	err = d.ctx.runStage("shuffle:scatter", len(parts), func(tk *taskCtx) {
		in := parts[tk.part]
		tk.recordsIn = int64(len(in))
		scratch := grabScratch(len(in), n)
		defer scratchPool.Put(scratch) // deferred so an operator panic still returns it
		dsts, counts := scratch.dsts, scratch.counts
		for i, kv := range in {
			dst := uint32(hashKey(kv.Key) % uint64(n))
			dsts[i] = dst
			counts[dst]++
		}
		local := make([][]Pair[K, V], n)
		for dst, c := range counts {
			if c > 0 {
				local[dst] = make([]Pair[K, V], 0, c)
			}
		}
		for i, kv := range in {
			local[dsts[i]] = append(local[dsts[i]], kv)
		}
		scatter[tk.part] = local
		tk.recordsOut = int64(len(in))
	})
	if err != nil {
		return nil, err
	}
	out := make([][]Pair[K, V], n)
	gerr := d.ctx.runStage("shuffle:gather", n, func(tk *taskCtx) {
		dst := tk.part
		total := 0
		for src := range scatter {
			total += len(scatter[src][dst])
		}
		bucket := make([]Pair[K, V], 0, total)
		for src := range scatter {
			bucket = append(bucket, scatter[src][dst]...)
		}
		tk.shuffled += int64(total)
		tk.recordsOut = int64(total)
		out[dst] = bucket
	})
	if gerr != nil {
		return nil, gerr
	}
	return out, nil
}

// GroupByKey shuffles pairs and groups the values of each key, like Spark's
// groupByKey. The result has one Pair per distinct key. It is a stage
// boundary: the input's pending narrow chain runs (fused) before the
// shuffle, and the grouped result is materialized.
func GroupByKey[K comparable, V any](d *Dataset[Pair[K, V]]) *Dataset[Pair[K, []V]] {
	return GroupByKeyN(d, d.ctx.parallelism)
}

// GroupByKeyN is GroupByKey into n destination partitions (n <= 0 means the
// context's parallelism). n = 1 groups every key in one task, in first-seen
// order: the broadcast (collect-and-group-locally) plan, as the same
// operator on every backend and under every budget.
func GroupByKeyN[K comparable, V any](d *Dataset[Pair[K, V]], n int) *Dataset[Pair[K, []V]] {
	if n <= 0 {
		n = d.ctx.parallelism
	}
	// Out-of-core regime: sort-spill-merge instead of buckets plus a per-key
	// map. Group iteration order differs from the in-memory path (merge
	// order instead of first-seen order); within-group value order is
	// identical. The networked backend skips it — its shuffle already
	// bounds coordinator memory at one destination partition per task, and
	// grouping over the net-gathered buckets below matches the in-memory
	// path exactly.
	if d.ctx.mem != nil && d.ctx.exchange == nil {
		if kc, ok := codecFor[K](); ok {
			if vc, ok := codecFor[V](); ok {
				return groupByKeyExternal(d, n, kc, vc)
			}
		}
	}
	buckets, err := shuffleByKey(d, n)
	if err != nil {
		return errDataset[Pair[K, []V]](d.ctx, err)
	}
	out := make([][]Pair[K, []V], len(buckets))
	gerr := d.ctx.runStage("groupByKey", len(buckets), func(tk *taskCtx) {
		p := tk.part
		in := buckets[p]
		tk.recordsIn = int64(len(in))
		// Count, then carve. The first pass gives each record its group — one
		// map lookup per record; the map holds indexes into the result slice,
		// which doubles as the first-seen key order — and counts each group.
		// Every group's values are then carved from one slab sized to the
		// partition, each with its capacity clipped to its own count so an
		// append to one group can never write into the next.
		scratch := grabScratch(len(in), 0)
		defer scratchPool.Put(scratch)
		gids, counts := scratch.dsts, scratch.counts
		idx := make(map[K]int32, 64)
		res := make([]Pair[K, []V], 0, 64)
		for i, kv := range in {
			gi, seen := idx[kv.Key]
			if !seen {
				gi = int32(len(res))
				idx[kv.Key] = gi
				res = append(res, Pair[K, []V]{Key: kv.Key})
				counts = append(counts, 0)
			}
			gids[i] = uint32(gi)
			counts[gi]++
		}
		scratch.counts = counts // keep the grown array for the next task
		slab := make([]V, len(in))
		off := 0
		for g, c := range counts {
			res[g].Value = slab[off : off : off+c]
			off += c
		}
		for i, kv := range in {
			g := gids[i]
			res[g].Value = append(res[g].Value, kv.Value)
		}
		out[p] = res
		tk.recordsOut = int64(len(res))
	})
	if gerr != nil {
		return errDataset[Pair[K, []V]](d.ctx, gerr)
	}
	return fromParts(d.ctx, out)
}

// ReduceByKey combines values per key with a map-side combine before the
// shuffle, the optimization the distributed equivalence-class algorithm's
// word-count structure relies on (Section 5.2). The combine fuses into the
// input's pending narrow chain.
func ReduceByKey[K comparable, V any](d *Dataset[Pair[K, V]], combine func(a, b V) V) *Dataset[Pair[K, V]] {
	// Out-of-core regime: stream the merged runs through the combiner
	// directly, never materializing groups. Skipped on the networked
	// backend (see GroupByKey).
	if d.ctx.mem != nil && d.ctx.exchange == nil {
		if kc, ok := codecFor[K](); ok {
			if vc, ok := codecFor[V](); ok {
				return reduceByKeyExternal(d, combine, kc, vc)
			}
		}
	}
	// Map-side combine (narrow, fuses with whatever precedes it). Like
	// groupByKey, the map indexes the result slice so each record costs one
	// lookup and combining writes through the slice, not the map.
	pre := MapPartitions(d, func(_ int, in []Pair[K, V]) []Pair[K, V] {
		idx := make(map[K]int32, 64)
		res := make([]Pair[K, V], 0, 64)
		for _, kv := range in {
			if gi, seen := idx[kv.Key]; seen {
				res[gi].Value = combine(res[gi].Value, kv.Value)
			} else {
				idx[kv.Key] = int32(len(res))
				res = append(res, kv)
			}
		}
		return res
	})
	grouped := GroupByKey(pre)
	return Map(grouped, func(g Pair[K, []V]) Pair[K, V] {
		acc := g.Value[0]
		for _, v := range g.Value[1:] {
			acc = combine(acc, v)
		}
		return KV(g.Key, acc)
	})
}

// CoGroup shuffles two pair datasets together and, per key, collects the
// values from each side into bags — Pig's COGROUP, the model for the
// paper's CoBlock enhancer. It is a stage boundary for both inputs.
func CoGroup[K comparable, A, B any](da *Dataset[Pair[K, A]], db *Dataset[Pair[K, B]]) *Dataset[Pair[K, CoGrouped[A, B]]] {
	return CoGroupN(da, db, da.ctx.parallelism)
}

// CoGroupN is CoGroup into n destination partitions (n <= 0 means the
// context's parallelism); n = 1 is the broadcast CoBlock.
func CoGroupN[K comparable, A, B any](da *Dataset[Pair[K, A]], db *Dataset[Pair[K, B]], n int) *Dataset[Pair[K, CoGrouped[A, B]]] {
	ctx := da.ctx
	if n <= 0 {
		n = ctx.parallelism
	}
	ba, err := shuffleByKey(da, n)
	if err != nil {
		return errDataset[Pair[K, CoGrouped[A, B]]](ctx, err)
	}
	bb, err := shuffleByKey(db, n)
	if err != nil {
		return errDataset[Pair[K, CoGrouped[A, B]]](ctx, err)
	}
	out := make([][]Pair[K, CoGrouped[A, B]], n)
	gerr := ctx.runStage("coGroup", n, func(tk *taskCtx) {
		p := tk.part
		groups := make(map[K]*CoGrouped[A, B])
		var order []K
		for _, kv := range ba[p] {
			g, seen := groups[kv.Key]
			if !seen {
				g = &CoGrouped[A, B]{}
				groups[kv.Key] = g
				order = append(order, kv.Key)
			}
			g.Left = append(g.Left, kv.Value)
		}
		for _, kv := range bb[p] {
			g, seen := groups[kv.Key]
			if !seen {
				g = &CoGrouped[A, B]{}
				groups[kv.Key] = g
				order = append(order, kv.Key)
			}
			g.Right = append(g.Right, kv.Value)
		}
		res := make([]Pair[K, CoGrouped[A, B]], 0, len(order))
		for _, k := range order {
			res = append(res, KV(k, *groups[k]))
		}
		tk.recordsIn = int64(len(ba[p]) + len(bb[p]))
		out[p] = res
		tk.recordsOut = int64(len(res))
	})
	if gerr != nil {
		return errDataset[Pair[K, CoGrouped[A, B]]](ctx, gerr)
	}
	return fromParts(ctx, out)
}

// CoGrouped holds the per-key bags produced by CoGroup.
type CoGrouped[A, B any] struct {
	Left  []A
	Right []B
}

// Distinct removes duplicates using a key function to identify elements.
func Distinct[T any, K comparable](d *Dataset[T], key func(T) K) *Dataset[T] {
	kv := KeyBy(d, key)
	grouped := GroupByKey(kv)
	return Map(grouped, func(g Pair[K, []T]) T { return g.Value[0] })
}
