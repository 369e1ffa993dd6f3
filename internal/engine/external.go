package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"unsafe"

	"bigdansing/internal/spill"
)

// External (out-of-core) wide operators. When a Context carries a memory
// budget (Config.MemoryBudgetBytes) and the element types have registered
// codecs, the wide transformations switch from their in-memory algorithms
// to the spill regime implemented here:
//
//   - grouping / ReduceByKey: each source partition encodes its records,
//     buffers them under reservation from the budget manager, and — when a
//     reservation is refused — stable-sorts the buffer by (destination,
//     64-bit key hash, encoded key bytes) and spills it as per-destination
//     run files; the final buffer stays in memory as one more sorted run.
//     Each destination then k-way merges its runs in (hash, key-bytes)
//     order and folds adjacent equal keys into groups (or reduced values)
//     without ever holding a per-key hash map. Hash-then-key ordering is a
//     valid grouping order because codecs are injective: equal keys have
//     equal hashes and equal encodings, so every record of a key is
//     adjacent after the merge.
//   - SortBy: the same spill structure with runs ordered by the user's less
//     function; the per-destination merge yields each output partition
//     already sorted, turning sample-sort into a true external merge sort.
//   - co-grouping / RangePartitionBy: order-preserving scatter with spill —
//     runs are ordered by destination only and the "merge" concatenates
//     them in (source, flush) order, so every destination reads its
//     records in the order the in-memory index scatter yields them.
//
// Every operator creates its run files under a lazily made temp directory
// that is removed on all exits — success, error and operator panic alike.

// recOverhead is the bookkeeping cost charged to the budget per record a
// scatter or sort spiller buffers, on top of its estimated encoded size.
const recOverhead = 48

// spillStats aggregates one operator's spill activity; folded into the
// context Stats when the operator finishes.
type spillStats struct {
	bytes  atomic.Int64
	runs   atomic.Int64
	merges atomic.Int64
}

// flushInto reports the totals (and the budget high-water mark) to the
// context's observer.
func (sp *spillStats) flushInto(ctx *Context) {
	ctx.obs.Count(MetricBytesSpilled, sp.bytes.Load())
	ctx.obs.Count(MetricSpillRuns, sp.runs.Load())
	ctx.obs.Count(MetricMergePasses, sp.merges.Load())
	ctx.obs.Count(MetricPeakReservedBytes, ctx.mem.Peak())
}

// runOf is one spilled run holding records of a single destination.
type runOf struct {
	dst int
	run *spill.Run
}

// spillSource is the spill stage's output for one source partition: its
// file runs in flush order, the final in-memory run (sorted like the
// files), and the budget bytes still reserved for that in-memory run.
type spillSource[R any] struct {
	files    []runOf
	mem      []R
	reserved int64
}

// memSegment returns the subrange of the (dst-major sorted) in-memory run
// holding destination dst.
func (s *spillSource[R]) memSegment(dst int, dstOf func(R) int) []R {
	lo := sort.Search(len(s.mem), func(i int) bool { return dstOf(s.mem[i]) >= dst })
	hi := sort.Search(len(s.mem), func(i int) bool { return dstOf(s.mem[i]) > dst })
	return s.mem[lo:hi]
}

// spiller accumulates one source partition's records under budget
// reservation and spills per-destination runs when a reservation is
// refused. The record type R carries its destination; sortRun must
// stable-sort a buffer into run order (destination-major), encode must
// serialize one record, and cost prices one record against the budget.
type spiller[R any] struct {
	mm      *spill.Manager
	dir     *spill.Dir
	stats   *spillStats
	dstOf   func(R) int
	sortRun func([]R)
	encode  func(buf []byte, r R) []byte
	cost    func(R) int64

	buf      []R
	reserved int64
	files    []runOf
	scratch  []byte
}

// add stages one record, spilling the buffer first if the budget refuses
// the reservation.
func (s *spiller[R]) add(r R) error {
	c := s.cost(r)
	if !s.mm.TryReserve(c) {
		if err := s.flush(); err != nil {
			return err
		}
		if !s.mm.TryReserve(c) {
			// The budget is exhausted by other tasks and this record alone
			// does not fit: write it straight through as a one-record run
			// so the operator still makes progress without overcommitting.
			one := []R{r}
			s.sortRun(one)
			return s.writeRuns(one)
		}
	}
	s.reserved += c
	s.buf = append(s.buf, r)
	return nil
}

// flush sorts the buffer into run order, writes one run per destination,
// and releases the buffer's reservation.
func (s *spiller[R]) flush() error {
	if len(s.buf) == 0 {
		return nil
	}
	s.sortRun(s.buf)
	if err := s.writeRuns(s.buf); err != nil {
		return err
	}
	s.buf = s.buf[:0]
	s.mm.Release(s.reserved)
	s.reserved = 0
	return nil
}

// writeRuns writes one run per destination segment of the sorted records.
func (s *spiller[R]) writeRuns(recs []R) error {
	for i := 0; i < len(recs); {
		j := i
		dst := s.dstOf(recs[i])
		for j < len(recs) && s.dstOf(recs[j]) == dst {
			j++
		}
		w, err := s.dir.NewRun()
		if err != nil {
			return err
		}
		for _, r := range recs[i:j] {
			s.scratch = s.encode(s.scratch[:0], r)
			if err := w.Append(s.scratch); err != nil {
				w.Abort()
				return err
			}
		}
		run, err := w.Finish()
		if err != nil {
			return err
		}
		s.files = append(s.files, runOf{dst: dst, run: run})
		s.stats.bytes.Add(run.Bytes)
		s.stats.runs.Add(1)
		i = j
	}
	return nil
}

// finish sorts the leftover buffer (kept in memory as the last run) and
// returns the source descriptor. The leftover's reservation is released by
// the operator after the merge stage.
func (s *spiller[R]) finish() *spillSource[R] {
	s.sortRun(s.buf)
	return &spillSource[R]{files: s.files, mem: s.buf, reserved: s.reserved}
}

// runSpillStage executes the spill stage: one task per source partition
// feeds its records through a fresh spiller. feed converts the partition's
// elements into records and adds them (returning the first failure).
// Reservations of failed or panicking tasks are released before the stage
// returns, so no budget leaks on the operator-panic path.
func runSpillStage[T, R any](
	ctx *Context, stage string, parts [][]T,
	newSpiller func() *spiller[R],
	feed func(sp *spiller[R], tk *taskCtx, in []T) error,
) ([]*spillSource[R], error) {
	sources := make([]*spillSource[R], len(parts))
	errs := make([]error, len(parts))
	serr := ctx.runStage(stage+":spill", len(parts), func(tk *taskCtx) {
		sp := newSpiller()
		handedOver := false
		defer func() {
			if !handedOver {
				ctx.mem.Release(sp.reserved)
			}
		}()
		if err := feed(sp, tk, parts[tk.part]); err != nil {
			errs[tk.part] = err
			return
		}
		sources[tk.part] = sp.finish()
		handedOver = true
	})
	if serr == nil {
		serr = firstError(errs)
	}
	if serr != nil {
		releaseSources(ctx, sources)
		return nil, serr
	}
	return sources, nil
}

// releaseSources returns the in-memory-run reservations to the budget.
func releaseSources[R any](ctx *Context, sources []*spillSource[R]) {
	for i, s := range sources {
		if s != nil {
			ctx.mem.Release(s.reserved)
			sources[i] = nil
		}
	}
}

// mergeSource is one sorted input of a k-way merge. pull returns the next
// record; ord breaks ties so that sources earlier in (source partition,
// flush) order win, preserving arrival order for equal elements.
type mergeSource[R any] struct {
	pull func() (R, bool, error)
	cur  R
	ord  int
}

// sliceSource adapts a sorted slice segment to a mergeSource.
func sliceSource[R any](seg []R, ord int) *mergeSource[R] {
	i := 0
	return &mergeSource[R]{ord: ord, pull: func() (R, bool, error) {
		if i >= len(seg) {
			var zero R
			return zero, false, nil
		}
		r := seg[i]
		i++
		return r, true, nil
	}}
}

// mergeSourcesFor assembles the merge inputs of one destination: every
// source partition contributes its file runs for dst (flush order) then its
// in-memory segment, so ord reproduces arrival order. decode parses one run
// record (its input aliases the reader's frame buffer and is only valid
// until the next pull of the same source). The returned closers must run
// when the merge is done.
func mergeSourcesFor[R any](
	sources []*spillSource[R], dst int, dstOf func(R) int,
	decode func(b []byte) (R, error),
) (srcs []*mergeSource[R], closers []func(), err error) {
	ord := 0
	for _, s := range sources {
		for _, fr := range s.files {
			if fr.dst != dst {
				continue
			}
			rd, oerr := fr.run.Open()
			if oerr != nil {
				return nil, closers, oerr
			}
			closers = append(closers, func() { rd.Close() })
			srcs = append(srcs, &mergeSource[R]{ord: ord, pull: func() (R, bool, error) {
				var zero R
				b, rerr := rd.Next()
				if rerr == io.EOF {
					return zero, false, nil
				}
				if rerr != nil {
					return zero, false, rerr
				}
				r, derr := decode(b)
				if derr != nil {
					return zero, false, derr
				}
				return r, true, nil
			}})
			ord++
		}
		if seg := s.memSegment(dst, dstOf); len(seg) > 0 {
			srcs = append(srcs, sliceSource(seg, ord))
			ord++
		}
	}
	return srcs, closers, nil
}

// kWayMerge merges the sources in before-order, calling emit for every
// record. A binary heap keyed by (before, ord) keeps the pop at O(log k).
func kWayMerge[R any](srcs []*mergeSource[R], before func(a, b R) bool, emit func(R) error) error {
	h := make([]*mergeSource[R], 0, len(srcs))
	for _, s := range srcs {
		r, ok, err := s.pull()
		if err != nil {
			return err
		}
		if ok {
			s.cur = r
			h = append(h, s)
		}
	}
	lessAt := func(a, b *mergeSource[R]) bool {
		if before(a.cur, b.cur) {
			return true
		}
		if before(b.cur, a.cur) {
			return false
		}
		return a.ord < b.ord
	}
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < len(h) && lessAt(h[l], h[m]) {
				m = l
			}
			if r < len(h) && lessAt(h[r], h[m]) {
				m = r
			}
			if m == i {
				return
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	for len(h) > 0 {
		top := h[0]
		if err := emit(top.cur); err != nil {
			return err
		}
		r, ok, err := top.pull()
		if err != nil {
			return err
		}
		if ok {
			top.cur = r
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
			if len(h) == 0 {
				return nil
			}
		}
		siftDown(0)
	}
	return nil
}

// --- key-value records (grouping / ReduceByKey) ---

// spillRec is one key-value record staged for spilling: its destination
// partition, the key's 64-bit hash, and the codec encodings of key and
// value. On disk it is framed as [hash:8le][keyLen:uvarint][key][val]; the
// destination is implied by which run the record lives in.
type spillRec struct {
	dst  uint32
	hash uint64
	key  []byte
	val  []byte
}

// appendKVRec serializes r (without its dst) into buf.
func appendKVRec(buf []byte, r spillRec) []byte {
	var h [8]byte
	binary.LittleEndian.PutUint64(h[:], r.hash)
	buf = append(buf, h[:]...)
	buf = binary.AppendUvarint(buf, uint64(len(r.key)))
	buf = append(buf, r.key...)
	return append(buf, r.val...)
}

// decodeKVRec parses a serialized record. The returned key/val alias b.
func decodeKVRec(b []byte) (spillRec, error) {
	if len(b) < 8 {
		return spillRec{}, fmt.Errorf("engine: spill record truncated")
	}
	h := binary.LittleEndian.Uint64(b)
	klen, sz := binary.Uvarint(b[8:])
	if sz <= 0 || klen > uint64(len(b)-8-sz) {
		return spillRec{}, fmt.Errorf("engine: spill record key truncated")
	}
	key := b[8+sz : 8+sz+int(klen)]
	val := b[8+sz+int(klen):]
	return spillRec{hash: h, key: key, val: val}, nil
}

// kvCost prices a buffered key-value record at what it holds: the
// allocation its key and value encodings share (the value is cut last, so
// its capacity runs to the allocation's end) and its slot in the buffer.
// Charging the encoded length alone undercounts small records, whose
// allocation is rounded up to its size class.
func kvCost(r spillRec) int64 {
	return int64(len(r.key)+cap(r.val)) + int64(unsafe.Sizeof(r))
}

// kvBefore is the merge order of the external group algorithms: key hash,
// then encoded key bytes (an arbitrary but total tie-break that keeps equal
// keys adjacent).
func kvBefore(a, b spillRec) bool {
	if a.hash != b.hash {
		return a.hash < b.hash
	}
	return bytes.Compare(a.key, b.key) < 0
}

// newKVSpiller builds the spiller of the external group algorithms.
func newKVSpiller(ctx *Context, dir *spill.Dir, st *spillStats) *spiller[spillRec] {
	return &spiller[spillRec]{
		mm:    ctx.mem,
		dir:   dir,
		stats: st,
		dstOf: func(r spillRec) int { return int(r.dst) },
		sortRun: func(buf []spillRec) {
			sort.SliceStable(buf, func(i, j int) bool {
				if buf[i].dst != buf[j].dst {
					return buf[i].dst < buf[j].dst
				}
				return kvBefore(buf[i], buf[j])
			})
		},
		encode: appendKVRec,
		cost:   kvCost,
	}
}

// externalGroupRuns executes the spill stage of the external group
// algorithms over the materialized input partitions, computing each
// record's (key, value) once, while encoding it.
func externalGroupRuns[T any, K comparable, V any](
	ctx *Context, stage string, dir *spill.Dir, st *spillStats,
	parts [][]T, n int, key func(T) K, val func(T) V, kc Codec[K], vc Codec[V],
) ([]*spillSource[spillRec], error) {
	return runSpillStage(ctx, stage, parts,
		func() *spiller[spillRec] { return newKVSpiller(ctx, dir, st) },
		func(sp *spiller[spillRec], _ *taskCtx, in []T) error {
			for _, t := range in {
				k := key(t)
				h := hashKey(k)
				// One allocation per record: key and value share a buffer,
				// sliced apart after encoding.
				enc := kc.Append(make([]byte, 0, 48), k)
				klen := len(enc)
				enc = vc.Append(enc, val(t))
				r := spillRec{
					dst:  uint32(h % uint64(n)),
					hash: h,
					key:  enc[:klen:klen],
					val:  enc[klen:],
				}
				if err := sp.add(r); err != nil {
					return err
				}
			}
			return nil
		})
}

// mergeKVDst k-way merges one destination's runs in (hash, key) order and
// streams every record to emit with a flag marking the first record of each
// key group.
func mergeKVDst(
	sources []*spillSource[spillRec], dst int, st *spillStats,
	emit func(r spillRec, firstOfKey bool) error,
) error {
	srcs, closers, err := mergeSourcesFor(sources, dst,
		func(r spillRec) int { return int(r.dst) }, decodeKVRec)
	defer func() {
		for _, c := range closers {
			c()
		}
	}()
	if err != nil {
		return err
	}
	if len(srcs) > 1 {
		st.merges.Add(1)
	}
	var (
		keyBytes []byte
		curHash  uint64
		started  bool
	)
	return kWayMerge(srcs, kvBefore, func(r spillRec) error {
		first := !started || r.hash != curHash || !bytes.Equal(r.key, keyBytes)
		if first {
			curHash = r.hash
			keyBytes = append(keyBytes[:0], r.key...)
			started = true
		}
		return emit(r, first)
	})
}

// groupByExternal is groupBy in the disk-backed regime.
func groupByExternal[T any, K comparable, V any](d *Dataset[T], key func(T) K, val func(T) V, n int, kc Codec[K], vc Codec[V]) *Dataset[Pair[K, []V]] {
	ctx := d.ctx
	parts, err := d.forced()
	if err != nil {
		return errDataset[Pair[K, []V]](ctx, err)
	}
	dir := spill.NewDir(ctx.spillDir, "groupByKey")
	defer dir.Cleanup()
	st := &spillStats{}
	defer st.flushInto(ctx)

	sources, err := externalGroupRuns(ctx, "groupByKey", dir, st, parts, n, key, val, kc, vc)
	if err != nil {
		return errDataset[Pair[K, []V]](ctx, err)
	}
	defer releaseSources(ctx, sources)

	out := make([][]Pair[K, []V], n)
	errs := make([]error, n)
	gerr := ctx.runStage("groupByKey:merge", n, func(tk *taskCtx) {
		res := out[tk.part]
		errs[tk.part] = mergeKVDst(sources, tk.part, st, func(r spillRec, first bool) error {
			if first {
				k, _, derr := kc.Decode(r.key)
				if derr != nil {
					return derr
				}
				res = append(res, KV(k, []V(nil)))
			}
			v, _, derr := vc.Decode(r.val)
			if derr != nil {
				return derr
			}
			g := &res[len(res)-1]
			g.Value = append(g.Value, v)
			tk.shuffled++
			return nil
		})
		out[tk.part] = res
		tk.recordsIn = tk.shuffled
		tk.recordsOut = int64(len(res))
	})
	if gerr == nil {
		gerr = firstError(errs)
	}
	if gerr != nil {
		return errDataset[Pair[K, []V]](ctx, gerr)
	}
	return fromParts(ctx, out)
}

// reduceByKeyExternal is ReduceByKey in the disk-backed regime: the merge
// folds values into the running accumulator as they stream by, so no group
// slice and no per-key map are ever materialized. The in-memory path's
// map-side combine is skipped — its combine map is exactly the unbounded
// state this regime exists to avoid.
func reduceByKeyExternal[K comparable, V any](d *Dataset[Pair[K, V]], combine func(a, b V) V, kc Codec[K], vc Codec[V]) *Dataset[Pair[K, V]] {
	ctx := d.ctx
	n := ctx.parallelism
	parts, err := d.forced()
	if err != nil {
		return errDataset[Pair[K, V]](ctx, err)
	}
	dir := spill.NewDir(ctx.spillDir, "reduceByKey")
	defer dir.Cleanup()
	st := &spillStats{}
	defer st.flushInto(ctx)

	sources, err := externalGroupRuns(ctx, "reduceByKey", dir, st, parts, n, pairKey[K, V], pairValue[K, V], kc, vc)
	if err != nil {
		return errDataset[Pair[K, V]](ctx, err)
	}
	defer releaseSources(ctx, sources)

	out := make([][]Pair[K, V], n)
	errs := make([]error, n)
	gerr := ctx.runStage("reduceByKey:merge", n, func(tk *taskCtx) {
		res := out[tk.part]
		errs[tk.part] = mergeKVDst(sources, tk.part, st, func(r spillRec, first bool) error {
			v, _, derr := vc.Decode(r.val)
			if derr != nil {
				return derr
			}
			if first {
				k, _, derr := kc.Decode(r.key)
				if derr != nil {
					return derr
				}
				res = append(res, KV(k, v))
			} else {
				tk.op = "Reduce"
				res[len(res)-1].Value = combine(res[len(res)-1].Value, v)
			}
			tk.shuffled++
			return nil
		})
		out[tk.part] = res
		tk.recordsIn = tk.shuffled
		tk.recordsOut = int64(len(res))
	})
	if gerr == nil {
		gerr = firstError(errs)
	}
	if gerr != nil {
		return errDataset[Pair[K, V]](ctx, gerr)
	}
	return fromParts(ctx, out)
}

// firstError returns the first non-nil error of a task error slice.
func firstError(errs []error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
