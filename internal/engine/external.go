package engine

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
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
//   - grouping / ReduceByKey: each source partition encodes its records
//     into reused slabs, buffers them under reservation from the budget
//     manager (which is charged for the buffer's slots and the slabs the
//     task holds) in a buffer sized for the task's share of the budget, and
//     — when a reservation is refused —
//     sorts the buffer by (destination, 64-bit key hash, encoded key bytes,
//     buffer index) and spills it as per-destination run files; the final
//     buffer stays in memory as one more sorted run. The sort is unstable
//     but the buffer index makes it total, so records equal in everything
//     else keep their arrival order, as under a stable sort. Each
//     destination then k-way merges its runs in (hash, key-bytes) order and
//     folds adjacent equal keys into groups (or reduced values) without ever
//     holding a per-key hash map; groups are windows carved out of one value
//     slice per destination, sized from the runs' record counts. Hash-then-
//     key ordering is a valid grouping order because codecs are injective:
//     equal keys have equal hashes and equal encodings, so every record of a
//     key is adjacent after the merge.
//   - co-grouping / RangePartitionBy: order-preserving scatter with spill —
//     runs are ordered by destination, then arrival, and the "merge"
//     concatenates them in (source, flush) order, so every destination
//     reads its records in the order the in-memory index scatter yields
//     them.
//
// Every operator creates its run files under a lazily made temp directory
// that is removed on all exits — success, error and operator panic alike.

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

// runKey is a buffered record's place in run order: its destination, its
// key hash (grouping spillers; zero otherwise) and its index in the buffer.
// Sorting keys instead of records swaps 16 pointer-free bytes, and the
// index, compared last, keeps records that tie on everything else in
// arrival order, the order a stable sort would leave them in.
type runKey struct {
	dst  uint32
	seq  uint32
	hash uint64
}

// spillSource is the spill stage's output for one source partition: its
// file runs in flush order, the final in-memory run (its records in arrival
// order and their keys in run order), the slabs holding that run's bytes,
// and the budget bytes still reserved for what the source holds: the
// record buffer's slots, the slabs and the in-memory records' costs.
type spillSource[R any] struct {
	files    []runOf
	keys     []runKey
	mem      []R
	slabs    [][]byte
	reserved int64
}

// memSegment returns the keys of the in-memory run's records bound for dst,
// in run order.
func (s *spillSource[R]) memSegment(dst int) []runKey {
	d := uint32(dst)
	lo := sort.Search(len(s.keys), func(i int) bool { return s.keys[i].dst >= d })
	hi := sort.Search(len(s.keys), func(i int) bool { return s.keys[i].dst > d })
	return s.keys[lo:hi]
}

// destLen returns how many records destination dst receives: the records of
// its file runs and of its in-memory segments, over every source.
func destLen[R any](sources []*spillSource[R], dst int) int {
	n := 0
	for _, s := range sources {
		for _, fr := range s.files {
			if fr.dst == dst {
				n += int(fr.run.Records)
			}
		}
		n += len(s.memSegment(dst))
	}
	return n
}

// minSlab and slabBytes bound the slabs a grouping spiller encodes records
// into.
const minSlab, slabBytes = 256, 256 << 10

// slabArena holds the encoded bytes of a spiller's buffered records in a few
// large slabs, each record a window capped at its own end. Every slab is
// reserved from the budget when it is taken and stays reserved while the
// spiller holds it; once a flush has written the records to disk, reset
// makes every slab reusable.
type slabArena struct {
	mm       *spill.Manager
	size     int
	slabs    [][]byte
	cur      int
	reserved int64 // the slabs' capacity
	loose    int64 // records larger than a slab, allocated on their own
}

// take returns a window of n bytes for the caller to fill. It reserves a new
// slab when the current ones lack room, or n bytes for a record larger than
// a slab, which gets an allocation of its own; ok is false, and nothing is
// taken, if the budget refuses.
func (a *slabArena) take(n int) (b []byte, ok bool) {
	if n > a.size {
		if !a.mm.TryReserve(int64(n)) {
			return nil, false
		}
		a.loose += int64(n)
		return make([]byte, n), true
	}
	for a.cur < len(a.slabs) && cap(a.slabs[a.cur])-len(a.slabs[a.cur]) < n {
		a.cur++
	}
	if a.cur == len(a.slabs) {
		if !a.mm.TryReserve(int64(a.size)) {
			return nil, false
		}
		a.reserved += int64(a.size)
		a.slabs = append(a.slabs, make([]byte, 0, a.size))
	}
	s := a.slabs[a.cur]
	start := len(s)
	s = s[:start+n]
	a.slabs[a.cur] = s
	return s[start : start+n : start+n], true
}

// reset makes every slab empty again and releases the records that had
// allocations of their own.
func (a *slabArena) reset() {
	for i := range a.slabs {
		a.slabs[i] = a.slabs[i][:0]
	}
	a.cur = 0
	a.mm.Release(a.loose)
	a.loose = 0
}

// spiller accumulates one source partition's records under budget
// reservation and spills per-destination runs when its buffer is full or a
// reservation is refused. Run order is (destination, key hash, order,
// arrival); order may be nil (arrival order within a destination and hash).
// encode serializes one record and cost gives the bytes a record holds
// besides its buffer slot. A spiller without own reserves that cost with
// each record's slot; one with own has it copy the record's borrowed bytes
// into the spiller's slabs, which reserve a slab at a time.
//
// The budget is charged for what the spiller holds: each buffered record's
// slot and cost, and each slab from when it is taken until the operator
// releases the source after its merge (a flush empties the slabs for reuse
// but keeps them). The buffer is sized once, for as many records as the
// task's share of the budget holds, so no task crowds the others out of the
// budget; the spill stage charges its empty slots when it hands the buffer
// to the source.
type spiller[R any] struct {
	mm     *spill.Manager
	dir    *spill.Dir
	stats  *spillStats
	order  func(a, b R) int
	encode func(buf []byte, r R) []byte
	cost   func(R) int64
	own    func(a *slabArena, r R) (R, bool)

	n        int   // records the task will add
	share    int64 // the task's share of the budget
	slot     int64 // a record's buffer space: its record and its run key
	keys     []runKey
	buf      []R
	held     slabArena
	reserved int64 // the buffered records' slots and costs
	files    []runOf
	scratch  []byte
}

// presize sizes the record buffer on the task's first record, r: a slot for
// each of the task's records, or for as many records costing what r costs
// as the task's share of the budget holds, whichever is fewer. The slabs
// hold a quarter of the bytes such a buffer's records would.
func (s *spiller[R]) presize(r R) {
	s.slot = int64(unsafe.Sizeof(runKey{}) + unsafe.Sizeof(r))
	c := s.cost(r)
	n := int64(s.n)
	if s.share > 0 {
		n = max(min(n, s.share/(s.slot+c)), 1)
	}
	s.keys = make([]runKey, 0, n)
	s.buf = make([]R, 0, n)
	s.held = slabArena{mm: s.mm, size: int(min(max(n*c/4, minSlab), slabBytes))}
}

// holding returns the budget bytes the spiller has reserved.
func (s *spiller[R]) holding() int64 {
	return s.reserved + s.held.reserved + s.held.loose
}

// add stages one record bound for dst, spilling the buffer first if it is
// full or the budget refuses the record.
func (s *spiller[R]) add(dst int, hash uint64, r R) error {
	if s.buf == nil {
		s.presize(r)
	}
	owned, ok := r, false
	if len(s.buf) < cap(s.buf) {
		owned, ok = s.admit(r)
	}
	if !ok {
		if err := s.flush(); err != nil {
			return err
		}
		if owned, ok = s.admit(r); !ok {
			// The budget is exhausted by other tasks and this record alone
			// does not fit: write it straight through as a one-record run
			// so the operator still makes progress without overcommitting.
			return s.writeRuns([]runKey{{dst: uint32(dst)}}, []R{r})
		}
	}
	s.keys = append(s.keys, runKey{dst: uint32(dst), seq: uint32(len(s.buf)), hash: hash})
	s.buf = append(s.buf, owned)
	return nil
}

// admit reserves r's slot and what r holds besides it, and returns the
// record to buffer: for a spiller with own, r with its bytes in the slabs.
// ok is false, and nothing is reserved, if the budget refuses.
func (s *spiller[R]) admit(r R) (R, bool) {
	c := s.slot
	if s.own == nil {
		c += s.cost(r)
	}
	if !s.mm.TryReserve(c) {
		return r, false
	}
	if s.own != nil {
		owned, ok := s.own(&s.held, r)
		if !ok {
			s.mm.Release(c)
			return r, false
		}
		r = owned
	}
	s.reserved += c
	return r, true
}

// sortRun sorts the buffer's keys into run order. The sort is unstable;
// the buffer index as the last criterion makes the order total, so it is
// the order a stable sort on (destination, hash, order) would produce.
func (s *spiller[R]) sortRun() {
	buf, order := s.buf, s.order
	slices.SortFunc(s.keys, func(a, b runKey) int {
		if a.dst != b.dst {
			return cmp.Compare(a.dst, b.dst)
		}
		if a.hash != b.hash {
			return cmp.Compare(a.hash, b.hash)
		}
		if order != nil {
			if c := order(buf[a.seq], buf[b.seq]); c != 0 {
				return c
			}
		}
		return cmp.Compare(a.seq, b.seq)
	})
}

// flush sorts the buffer into run order, writes one run per destination,
// empties the buffer and its slabs for reuse and releases the records'
// costs.
func (s *spiller[R]) flush() error {
	if len(s.buf) == 0 {
		return nil
	}
	s.sortRun()
	if err := s.writeRuns(s.keys, s.buf); err != nil {
		return err
	}
	s.keys, s.buf = s.keys[:0], s.buf[:0]
	s.held.reset()
	s.mm.Release(s.reserved)
	s.reserved = 0
	return nil
}

// writeRuns writes one run per destination segment of the sorted keys,
// each record read from buf at its key's index.
func (s *spiller[R]) writeRuns(keys []runKey, buf []R) error {
	for i := 0; i < len(keys); {
		dst := keys[i].dst
		w, err := s.dir.NewRun()
		if err != nil {
			return err
		}
		for ; i < len(keys) && keys[i].dst == dst; i++ {
			s.scratch = s.encode(s.scratch[:0], buf[keys[i].seq])
			if err := w.Append(s.scratch); err != nil {
				w.Abort()
				return err
			}
		}
		run, err := w.Finish()
		if err != nil {
			return err
		}
		s.files = append(s.files, runOf{dst: int(dst), run: run})
		s.stats.bytes.Add(run.Bytes)
		s.stats.runs.Add(1)
	}
	return nil
}

// finish sorts the leftover buffer, kept in memory as the last run, and
// returns the source descriptor, which takes over the spiller's
// reservation until the operator releases it after the merge. The buffer's
// empty slots are charged too, or, if the budget refuses, cut off by
// copying the records into a buffer of their size.
func (s *spiller[R]) finish() *spillSource[R] {
	s.sortRun()
	if spare := int64(cap(s.buf)-len(s.buf)) * s.slot; s.mm.TryReserve(spare) {
		s.reserved += spare
	} else {
		s.keys = append(make([]runKey, 0, len(s.keys)), s.keys...)
		s.buf = append(make([]R, 0, len(s.buf)), s.buf...)
	}
	return &spillSource[R]{
		files:    s.files,
		keys:     s.keys,
		mem:      s.buf,
		slabs:    s.held.slabs,
		reserved: s.holding(),
	}
}

// runSpillStage executes the spill stage: one task per source partition
// feeds its records through a fresh spiller, whose buffer is sized for the
// partition and for its share of the budget — an equal one per source
// partition, since every source holds its in-memory run until the merge.
// feed converts the partition's elements into records and adds them
// (returning the first failure). Reservations of failed or panicking tasks
// are released before the stage returns, so no budget leaks on the
// operator-panic path.
func runSpillStage[T, R any](
	ctx *Context, stage string, parts [][]T,
	newSpiller func() *spiller[R],
	feed func(sp *spiller[R], tk *taskCtx, in []T) error,
) ([]*spillSource[R], error) {
	sources := make([]*spillSource[R], len(parts))
	share := ctx.mem.Budget() / int64(max(len(parts), 1))
	serr := ctx.runStage(stage+":spill", len(parts), func(tk *taskCtx) {
		sp := newSpiller()
		handedOver := false
		defer func() {
			if !handedOver {
				ctx.mem.Release(sp.holding())
			}
		}()
		sp.n, sp.share = len(parts[tk.part]), share
		if tk.err = feed(sp, tk, parts[tk.part]); tk.err != nil {
			return
		}
		sources[tk.part] = sp.finish()
		handedOver = true
	})
	if serr != nil {
		releaseSources(ctx, sources)
		return nil, serr
	}
	return sources, nil
}

// releaseSources returns the sources' reservations to the budget; their
// in-memory runs must no longer be read.
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

// memSource adapts an in-memory run segment (keys in run order over the
// records of mem) to a mergeSource.
func memSource[R any](seg []runKey, mem []R, ord int) *mergeSource[R] {
	i := 0
	return &mergeSource[R]{ord: ord, pull: func() (R, bool, error) {
		if i >= len(seg) {
			var zero R
			return zero, false, nil
		}
		r := mem[seg[i].seq]
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
	sources []*spillSource[R], dst int, decode func(b []byte) (R, error),
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
		if seg := s.memSegment(dst); len(seg) > 0 {
			srcs = append(srcs, memSource(seg, s.mem, ord))
			ord++
		}
	}
	return srcs, closers, nil
}

// kWayMerge merges the sources in compare order, calling emit for every
// record. A binary heap keyed by (compare, ord) keeps the pop at O(log k).
func kWayMerge[R any](srcs []*mergeSource[R], compare func(a, b R) int, emit func(R) error) error {
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
		if c := compare(a.cur, b.cur); c != 0 {
			return c < 0
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

// spillRec is one key-value record staged for spilling: the key's 64-bit
// hash and the codec encodings of key and value. On disk it is framed as
// [hash:8le][keyLen:uvarint][key][val]; the destination is implied by which
// run the record lives in.
type spillRec struct {
	hash uint64
	key  []byte
	val  []byte
}

// appendKVRec serializes r into buf.
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

// kvCost gives the bytes a key-value record holds besides its slot: its key
// and value encodings, which ownKV copies into the slabs.
func kvCost(r spillRec) int64 {
	return int64(len(r.key) + len(r.val))
}

// ownKV copies a record's key and value encodings into one slab window.
func ownKV(a *slabArena, r spillRec) (spillRec, bool) {
	kl := len(r.key)
	b, ok := a.take(kl + len(r.val))
	if !ok {
		return r, false
	}
	copy(b, r.key)
	copy(b[kl:], r.val)
	r.key, r.val = b[:kl:kl], b[kl:]
	return r, true
}

// kvCompare is the merge order of the external group algorithms: key
// hash, then encoded key bytes (an arbitrary but total tie-break that keeps
// equal keys adjacent).
func kvCompare(a, b spillRec) int {
	if a.hash != b.hash {
		return cmp.Compare(a.hash, b.hash)
	}
	return bytes.Compare(a.key, b.key)
}

// newKVSpiller builds the spiller of the external group algorithms.
func newKVSpiller(ctx *Context, dir *spill.Dir, st *spillStats) *spiller[spillRec] {
	return &spiller[spillRec]{
		mm:     ctx.mem,
		dir:    dir,
		stats:  st,
		order:  kvCompare,
		encode: appendKVRec,
		cost:   kvCost,
		own:    ownKV,
	}
}

// externalGroupRuns executes the spill stage of the external group
// algorithms over the materialized input partitions, computing each
// record's (key, value) once, while encoding it. Each record is encoded
// into one reused buffer; the spiller copies the ones it buffers into its
// slabs.
func externalGroupRuns[T any, K comparable, V any](
	ctx *Context, stage string, dir *spill.Dir, st *spillStats,
	parts [][]T, n int, key func(T) K, val func(T) V, kc Codec[K], vc Codec[V],
) ([]*spillSource[spillRec], error) {
	return runSpillStage(ctx, stage, parts,
		func() *spiller[spillRec] { return newKVSpiller(ctx, dir, st) },
		func(sp *spiller[spillRec], _ *taskCtx, in []T) error {
			var enc []byte
			for _, t := range in {
				k := key(t)
				h := hashKey(k)
				enc = kc.Append(enc[:0], k)
				klen := len(enc)
				enc = vc.Append(enc, val(t))
				r := spillRec{hash: h, key: enc[:klen], val: enc[klen:]}
				if err := sp.add(int(h%uint64(n)), h, r); err != nil {
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
	srcs, closers, err := mergeSourcesFor(sources, dst, decodeKVRec)
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
	return kWayMerge(srcs, kvCompare, func(r spillRec) error {
		first := !started || r.hash != curHash || !bytes.Equal(r.key, keyBytes)
		if first {
			curHash = r.hash
			keyBytes = append(keyBytes[:0], r.key...)
			started = true
		}
		return emit(r, first)
	})
}

// groupByExternal is groupBy in the disk-backed regime. The runs tell how
// many values each destination receives, so its values are decoded into
// one slice of exactly that length and every group is a capped window of
// it, as the in-memory carve hands them out.
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
	gerr := ctx.runStage("groupByKey:merge", n, func(tk *taskCtx) {
		vals := make([]V, destLen(sources, tk.part))
		var res []Pair[K, []V]
		i, start := 0, 0
		tk.err = mergeKVDst(sources, tk.part, st, func(r spillRec, first bool) error {
			if first {
				if len(res) > 0 {
					res[len(res)-1].Value = vals[start:i:i]
				}
				start = i
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
			vals[i] = v
			i++
			return nil
		})
		if len(res) > 0 {
			res[len(res)-1].Value = vals[start:i:i]
		}
		out[tk.part] = res
		tk.shuffled += int64(i)
		tk.recordsIn = tk.shuffled
		tk.recordsOut = int64(len(res))
	})
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
	gerr := ctx.runStage("reduceByKey:merge", n, func(tk *taskCtx) {
		res := out[tk.part]
		tk.err = mergeKVDst(sources, tk.part, st, func(r spillRec, first bool) error {
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
	if gerr != nil {
		return errDataset[Pair[K, V]](ctx, gerr)
	}
	return fromParts(ctx, out)
}
