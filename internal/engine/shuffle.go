package engine

import (
	"cmp"
	"fmt"
	"iter"
	"sync"
)

// int32Pool recycles the per-task index arrays of the wide operators
// (destinations, group ids, group counts). They are sized to the partition
// being processed and reused across stages, so a steady-state shuffle
// allocates only what it hands downstream, not its working memory.
var int32Pool = sync.Pool{New: func() any { return new([]int32) }}

// grabInt32s returns a pooled, zeroed []int32 of length n. Return it with
// int32Pool.Put (deferred, so an operator panic still returns it).
func grabInt32s(n int) *[]int32 {
	p := int32Pool.Get().(*[]int32)
	if cap(*p) < n {
		*p = make([]int32, n)
	} else {
		*p = (*p)[:n]
		clear(*p)
	}
	return p
}

// Pair is a key-value record, the currency of wide transformations.
type Pair[K comparable, V any] struct {
	Key   K
	Value V
}

// KV builds a Pair.
func KV[K comparable, V any](k K, v V) Pair[K, V] { return Pair[K, V]{Key: k, Value: v} }

func pairKey[K comparable, V any](p Pair[K, V]) K   { return p.Key }
func pairValue[K comparable, V any](p Pair[K, V]) V { return p.Value }
func identity[T any](t T) T                         { return t }

// routing is the result of an index scatter. For each source partition it
// holds the record indices ordered by destination — a stable counting sort,
// so arrival order holds within a destination — and the n+1 offsets that
// cut them per destination. Destination p reads, for each source s in
// order, parts[s][i] for i in idx[s][off[s][p]:off[s][p+1]]: the (source
// partition, arrival) order the Exchange contract fixes, with no record
// copied.
type routing struct {
	idx [][]int32
	off [][]int32
}

// indexScatter is the in-memory scatter of every wide operator: one task
// per source partition computes each record's destination once and
// counting-sorts the record indices by it (4 bytes per record).
func indexScatter[T any](ctx *Context, stage string, parts [][]T, n int, dstOf func(T) int) (*routing, error) {
	rt := &routing{idx: make([][]int32, len(parts)), off: make([][]int32, len(parts))}
	err := ctx.runStage(stage+":scatter", len(parts), func(tk *taskCtx) {
		in := parts[tk.part]
		tk.recordsIn = int64(len(in))
		dstsBuf := grabInt32s(len(in))
		defer int32Pool.Put(dstsBuf)
		dsts := *dstsBuf
		// Count into off[dst], sum so off[dst] ends dst's segment, then
		// place backwards: each record lands before the later ones of its
		// destination and off[dst] is left at the segment's start.
		off := make([]int32, n+1)
		for i, v := range in {
			dst := int32(dstOf(v))
			dsts[i] = dst
			off[dst]++
		}
		for dst := 1; dst <= n; dst++ {
			off[dst] += off[dst-1]
		}
		idx := make([]int32, len(in))
		for i := len(in) - 1; i >= 0; i-- {
			off[dsts[i]]--
			idx[off[dsts[i]]] = int32(i)
		}
		rt.idx[tk.part], rt.off[tk.part] = idx, off
		tk.recordsOut = int64(len(in))
	})
	if err != nil {
		return nil, err
	}
	return rt, nil
}

// routedLen is the number of records bound for destination p. A nil
// routing means the records were already moved: destination p is parts[p].
func routedLen[T any](rt *routing, parts [][]T, p int) int {
	if rt == nil {
		return len(parts[p])
	}
	total := 0
	for _, off := range rt.off {
		total += int(off[p+1] - off[p])
	}
	return total
}

// routed yields f of destination p's records, read where they lie in parts,
// in (source partition, arrival) order.
func routed[T, U any](rt *routing, parts [][]T, p int, f func(T) U) iter.Seq[U] {
	return func(yield func(U) bool) {
		if rt == nil {
			for _, t := range parts[p] {
				if !yield(f(t)) {
					return
				}
			}
			return
		}
		for src, part := range parts {
			off := rt.off[src]
			for _, i := range rt.idx[src][off[p]:off[p+1]] {
				if !yield(f(part[i])) {
					return
				}
			}
		}
	}
}

// side is one input of a grouping after its shuffle: per destination, its
// record count, keys and values, each in (source partition, arrival) order.
// Keys and values are separate passes, so each is computed only where it
// is used; err reports, after a pass, a record that did not decode. spilled
// marks records that crossed the spill regime and were counted as shuffled
// there; the records of an index scatter or an exchange are counted where
// the grouping reads them.
type side[K comparable, V any] struct {
	size    func(p int) int
	keys    func(p int) iter.Seq[K]
	vals    func(p int) iter.Seq[V]
	err     func(p int) error
	spilled bool
}

func newSide[R any, K comparable, V any](rt *routing, recs [][]R, key func(R) K, val func(R) V) side[K, V] {
	return side[K, V]{
		size:    func(p int) int { return routedLen(rt, recs, p) },
		keys:    func(p int) iter.Seq[K] { return routed(rt, recs, p, key) },
		vals:    func(p int) iter.Seq[V] { return routed(rt, recs, p, val) },
		err:     func(int) error { return nil },
		spilled: rt == nil,
	}
}

// runSide is the side of the runs an exchange gathered, decoded where the
// grouping reads them: the key pass decodes each record's key and notes
// how many bytes it took, and the value pass decodes the rest of the
// record, so no (key, value) pair is built first.
func runSide[K comparable, V any](op string, runs [][]byte, counts []int, kc Codec[K], vc Codec[V]) side[K, V] {
	keyLens := make([]*[]int32, len(runs))
	errs := make([]error, len(runs))
	// walk calls f on each record of destination p until f returns false;
	// a run that is not whole is p's error.
	walk := func(p int, f func(i int, rec []byte) bool) {
		rd := ReadRun(runs[p], counts[p])
		for i := 0; ; i++ {
			if rec, ok := rd.Next(); !ok || !f(i, rec) {
				break
			}
		}
		errs[p] = cmp.Or(errs[p], rd.Err())
	}
	return side[K, V]{
		size: func(p int) int { return counts[p] },
		keys: func(p int) iter.Seq[K] {
			return func(yield func(K) bool) {
				kl := grabInt32s(counts[p])
				keyLens[p] = kl
				walk(p, func(i int, rec []byte) bool {
					k, n, err := kc.Decode(rec)
					(*kl)[i], errs[p] = int32(n), err
					return err == nil && yield(k)
				})
			}
		},
		vals: func(p int) iter.Seq[V] {
			return func(yield func(V) bool) {
				kl := keyLens[p]
				defer int32Pool.Put(kl)
				walk(p, func(i int, rec []byte) bool {
					v, n, err := vc.Decode(rec[(*kl)[i]:])
					if extra := len(rec) - int((*kl)[i]) - n; err == nil && extra != 0 {
						err = fmt.Errorf("record has %d trailing bytes", extra)
					}
					errs[p] = err
					return err == nil && yield(v)
				})
			}
		},
		err: func(p int) error {
			if errs[p] != nil {
				return fmt.Errorf("engine: %s: destination %d: %w", op, p, errs[p])
			}
			return nil
		},
	}
}

// shuffled is the records_shuffled count of destination p of s.
func (s side[K, V]) shuffled(p int) int64 {
	if s.spilled {
		return 0
	}
	return int64(s.size(p))
}

// shuffleBy hash-partitions d by key into the context's parallelism: the
// wide dependency every grouping shares. It forces d (running its pending
// narrow chain as one fused stage). In memory it is one index scatter and
// the records stay where they lie. Under an exchange every record's key and
// value are encoded into a run and move; the grouping decodes them from the
// gathered runs. Under a memory budget with codecs for K and V, every
// record's (key, value) is computed once and moves through the
// order-preserving spill scatter. Either way destination p sees its records
// in the same order. vwire, when set, encodes the values that move (see
// MovedAs).
func shuffleBy[T any, K comparable, V any](d *Dataset[T], key func(T) K, val func(T) V, vwire func([]byte, V) []byte) (side[K, V], error) {
	ctx := d.ctx
	n := ctx.parallelism
	parts, err := d.forced()
	if err != nil {
		return side[K, V]{}, err
	}
	kc, vc, moves, err := moveCodecs[K, V](ctx, vwire)
	if err != nil {
		return side[K, V]{}, err
	}
	dstOf := func(t T) int { return int(hashKey(key(t)) % uint64(n)) }
	if !moves {
		rt, err := indexScatter(ctx, "shuffle", parts, n, dstOf)
		return newSide(rt, parts, key, val), err
	}
	if ctx.exchange != nil {
		enc := func(buf []byte, t T) []byte { return vc.Append(kc.Append(buf, key(t)), val(t)) }
		runs, counts, err := exchangeScatter(ctx, "shuffle", parts, n, dstOf, enc)
		return runSide("shuffle", runs, counts, kc, vc), err
	}
	route := func(t T) (int, Pair[K, V]) {
		k := key(t)
		return int(hashKey(k) % uint64(n)), KV(k, val(t))
	}
	recs, err := scatterSpill(ctx, "shuffle", parts, n, route, pairCodec(kc, vc))
	return newSide(nil, recs, pairKey[K, V], pairValue[K, V]), err
}

// moveCodecs reports whether the context moves shuffled records instead of
// leaving them where they lie, and the codecs of the key and the value they
// move as. An exchange always moves them (a type without a codec is an
// error naming it); a memory budget moves them through the spill regime
// when both codecs are registered. vwire, when set, replaces V's Append.
func moveCodecs[K comparable, V any](ctx *Context, vwire func([]byte, V) []byte) (Codec[K], Codec[V], bool, error) {
	if ctx.exchange == nil && ctx.mem == nil {
		return Codec[K]{}, Codec[V]{}, false, nil
	}
	kc, kerr := exchangeCodec[K]("shuffle")
	vc, verr := exchangeCodec[V]("shuffle")
	vc = movedCodec(vc, vwire)
	if ctx.exchange == nil {
		return kc, vc, kerr == nil && verr == nil, nil
	}
	return kc, vc, true, cmp.Or(kerr, verr)
}

// bags is the one grouping of a destination task: it gives each record of
// one or more sides its group (one map lookup, first-seen key order across
// the sides) and counts every side's records per group.
type bags[K comparable] struct {
	ids  map[K]int32
	keys []K
}

// assign gives every record of seq its group id in gids and returns the
// side's per-group counts (indexed by group id, grown to cover every group
// seen so far).
func assign[K comparable](b *bags[K], seq iter.Seq[K], gids, counts []int32) []int32 {
	i := 0
	for k := range seq {
		gi, seen := b.ids[k]
		if !seen {
			gi = int32(len(b.keys))
			b.ids[k] = gi
			b.keys = append(b.keys, k)
		}
		for int(gi) >= len(counts) {
			counts = append(counts, 0)
		}
		gids[i] = gi
		counts[gi]++
		i++
	}
	return counts
}

// carve files the values of seq into their groups' bags. Every bag is cut
// from one slab sized to the records, with its capacity clipped to its own
// count so an append to one group can never write into the next; a group
// with no records on this side keeps a nil bag.
func carve[V any](seq iter.Seq[V], gids, counts []int32, bag func(g int32) *[]V) {
	slab := make([]V, len(gids))
	off := 0
	for g, c := range counts {
		if c > 0 {
			*bag(int32(g)) = slab[off : off : off+int(c)]
			off += int(c)
		}
	}
	i := 0
	for v := range seq {
		b := bag(gids[i])
		*b = append(*b, v)
		i++
	}
}

// groupBy hash-partitions d by key into the context's parallelism and
// groups val of each record per key, in first-seen key order per
// destination and arrival order within a group. It is a stage boundary: d
// is forced and the grouped result materialized. Under a memory budget
// (codecs for K and V registered, no exchange) it sort-spill-merges
// instead: groups come in merge order, within-group order is identical. The
// networked backend skips that regime — its shuffle already bounds
// coordinator memory at one destination partition per task. vwire, when
// set, encodes the values that move (see MovedAs).
func groupBy[T any, K comparable, V any](d *Dataset[T], key func(T) K, val func(T) V, vwire func([]byte, V) []byte) *Dataset[Pair[K, []V]] {
	ctx := d.ctx
	n := ctx.parallelism
	if ctx.mem != nil && ctx.exchange == nil {
		if kc, ok := codecFor[K](); ok {
			if vc, ok := codecFor[V](); ok {
				return groupByExternal(d, key, val, n, kc, movedCodec(vc, vwire))
			}
		}
	}
	in, err := shuffleBy(d, key, val, vwire)
	if err != nil {
		return errDataset[Pair[K, []V]](ctx, err)
	}
	out := make([][]Pair[K, []V], n)
	err = ctx.runStage("groupByKey", n, func(tk *taskCtx) {
		p := tk.part
		size := in.size(p)
		tk.recordsIn = int64(size)
		tk.shuffled += in.shuffled(p)
		gids, counts := grabInt32s(size), grabInt32s(0)
		defer int32Pool.Put(gids)
		defer int32Pool.Put(counts)
		b := &bags[K]{ids: make(map[K]int32, 64)}
		*counts = assign(b, in.keys(p), *gids, *counts)
		if tk.err = in.err(p); tk.err != nil {
			return
		}
		res := make([]Pair[K, []V], len(b.keys))
		for i, k := range b.keys {
			res[i].Key = k
		}
		carve(in.vals(p), *gids, *counts, func(g int32) *[]V { return &res[g].Value })
		if tk.err = in.err(p); tk.err != nil {
			return
		}
		out[p] = res
		tk.recordsOut = int64(len(res))
	})
	if err != nil {
		return errDataset[Pair[K, []V]](ctx, err)
	}
	return fromParts(ctx, out)
}

// GroupBy groups the records of d by key into the context's parallelism,
// like Spark's groupBy: one Pair per distinct key holding its records. No
// keyed-pair dataset is materialized; the key function runs where the
// records lie. Records that move are encoded as d's MovedAs appender writes
// them.
func GroupBy[T any, K comparable](d *Dataset[T], key func(T) K) *Dataset[Pair[K, []T]] {
	return groupBy(d, key, identity[T], d.wire)
}

// GroupByKey groups the values of a pair dataset by key into the context's
// parallelism, like Spark's groupByKey.
func GroupByKey[K comparable, V any](d *Dataset[Pair[K, V]]) *Dataset[Pair[K, []V]] {
	return groupBy(d, pairKey[K, V], pairValue[K, V], nil)
}

// ReduceByKey combines values per key with a map-side combine before the
// shuffle, the optimization the distributed equivalence-class algorithm's
// word-count structure relies on (Section 5.2). The combine fuses into the
// input's pending narrow chain.
func ReduceByKey[K comparable, V any](d *Dataset[Pair[K, V]], combine func(a, b V) V) *Dataset[Pair[K, V]] {
	// Out-of-core regime: stream the merged runs through the combiner
	// directly, never materializing groups. Skipped on the networked
	// backend (see groupBy).
	if d.ctx.mem != nil && d.ctx.exchange == nil {
		if kc, ok := codecFor[K](); ok {
			if vc, ok := codecFor[V](); ok {
				return reduceByKeyExternal(d, combine, kc, vc)
			}
		}
	}
	// Map-side combine (narrow, fuses with whatever precedes it). Like
	// grouping, the map indexes the result slice so each record costs one
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

// CoGroupBy shuffles two datasets together by their keys into the
// context's parallelism and, per key, collects the records of each side
// into bags — Pig's COGROUP, the model for the paper's CoBlock enhancer.
// Keys appear in first-seen order per destination, left records first; a
// side with no records for a key has a nil bag. It is a stage boundary for
// both inputs, and its bags are the same in every regime. Records that move
// are encoded as each input's MovedAs appender writes them.
func CoGroupBy[A, B any, K comparable](da *Dataset[A], db *Dataset[B], ka func(A) K, kb func(B) K) *Dataset[Pair[K, CoGrouped[A, B]]] {
	ctx := da.ctx
	n := ctx.parallelism
	left, err := shuffleBy(da, ka, identity[A], da.wire)
	if err != nil {
		return errDataset[Pair[K, CoGrouped[A, B]]](ctx, err)
	}
	right, err := shuffleBy(db, kb, identity[B], db.wire)
	if err != nil {
		return errDataset[Pair[K, CoGrouped[A, B]]](ctx, err)
	}
	out := make([][]Pair[K, CoGrouped[A, B]], n)
	err = ctx.runStage("coGroup", n, func(tk *taskCtx) {
		p := tk.part
		nl, nr := left.size(p), right.size(p)
		tk.recordsIn = int64(nl + nr)
		tk.shuffled += left.shuffled(p) + right.shuffled(p)
		gl, gr, cl, cr := grabInt32s(nl), grabInt32s(nr), grabInt32s(0), grabInt32s(0)
		defer func() {
			for _, buf := range []*[]int32{gl, gr, cl, cr} {
				int32Pool.Put(buf)
			}
		}()
		b := &bags[K]{ids: make(map[K]int32, 64)}
		*cl = assign(b, left.keys(p), *gl, *cl)
		*cr = assign(b, right.keys(p), *gr, *cr)
		if tk.err = cmp.Or(left.err(p), right.err(p)); tk.err != nil {
			return
		}
		res := make([]Pair[K, CoGrouped[A, B]], len(b.keys))
		for i, k := range b.keys {
			res[i].Key = k
		}
		carve(left.vals(p), *gl, *cl, func(g int32) *[]A { return &res[g].Value.Left })
		carve(right.vals(p), *gr, *cr, func(g int32) *[]B { return &res[g].Value.Right })
		if tk.err = cmp.Or(left.err(p), right.err(p)); tk.err != nil {
			return
		}
		out[p] = res
		tk.recordsOut = int64(len(res))
	})
	if err != nil {
		return errDataset[Pair[K, CoGrouped[A, B]]](ctx, err)
	}
	return fromParts(ctx, out)
}

// CoGrouped holds the per-key bags produced by CoGroupBy.
type CoGrouped[A, B any] struct {
	Left  []A
	Right []B
}

// Distinct removes duplicates using a key function to identify elements;
// the first element of each key (in grouping order) survives.
func Distinct[T any, K comparable](d *Dataset[T], key func(T) K) *Dataset[T] {
	return Map(GroupBy(d, key), func(g Pair[K, []T]) T { return g.Value[0] })
}
