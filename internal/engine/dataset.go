package engine

import (
	"fmt"
	"strings"
	"sync"
)

// Dataset is a partitioned, immutable collection of T — the analogue of a
// Spark RDD. Narrow transformations are lazy: they record a plan and return
// immediately; actions (Collect, Count, Err) and wide
// transformations trigger execution, fusing the pending narrow chain into a
// single per-partition stage. The error of a failed stage sticks to the
// result and surfaces at the next action.
type Dataset[T any] struct {
	ctx *Context

	mu    sync.Mutex
	state dsState
	parts [][]T          // materialized partitions, valid when state == dsDone
	err   error          // sticky failure, valid when state == dsFailed
	plan  *narrowPlan[T] // pending fused chain, valid when state == dsLazy
	// wire, when set, encodes each record a wide operator moves in place of
	// the registered codec's Append (see MovedAs).
	wire func(buf []byte, t T) []byte
}

type dsState uint8

const (
	dsLazy dsState = iota
	dsDone
	dsFailed
)

// narrowPlan is a fused chain of narrow operators over an upstream stage
// boundary: feed pushes the elements of one source partition through every
// recorded operator without materializing intermediate slices. bounded
// marks chains of non-expanding operators (Map, Filter), whose output per
// partition is at most the source partition's length — the sink uses it to
// allocate each output partition once, at its upper bound.
type narrowPlan[T any] struct {
	src     forceable
	feed    func(p int, tk *taskCtx, emit func(T))
	ops     []string
	bounded bool
}

// forceable is the untyped handle a narrow plan keeps to its source
// dataset: enough to ensure it is materialized and walk its partitions.
type forceable interface {
	force() error
	partsCount() int
	partLen(p int) int
}

// Parallelize slices data into n partitions (n <= 0 means the context's
// parallelism) and wraps it in a materialized Dataset. The input slice is
// not copied; callers must not mutate it afterwards.
func Parallelize[T any](ctx *Context, data []T, n int) *Dataset[T] {
	if n <= 0 {
		n = ctx.parallelism
	}
	if n > len(data) && len(data) > 0 {
		n = len(data)
	}
	if len(data) == 0 {
		n = 1
	}
	parts := make([][]T, n)
	chunk := (len(data) + n - 1) / n
	for i := 0; i < n; i++ {
		lo := i * chunk
		hi := lo + chunk
		if lo > len(data) {
			lo = len(data)
		}
		if hi > len(data) {
			hi = len(data)
		}
		parts[i] = data[lo:hi:hi]
	}
	ctx.obs.Count(MetricRecordsRead, int64(len(data)))
	return &Dataset[T]{ctx: ctx, state: dsDone, parts: parts}
}

// fromParts wraps pre-built partitions.
func fromParts[T any](ctx *Context, parts [][]T) *Dataset[T] {
	if len(parts) == 0 {
		parts = make([][]T, 1)
	}
	return &Dataset[T]{ctx: ctx, state: dsDone, parts: parts}
}

// errDataset propagates a stage failure.
func errDataset[T any](ctx *Context, err error) *Dataset[T] {
	return &Dataset[T]{ctx: ctx, state: dsFailed, parts: make([][]T, 1), err: err}
}

// force executes the pending plan, if any, and caches the result (or the
// failure). It is safe for concurrent use and idempotent.
func (d *Dataset[T]) force() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch d.state {
	case dsDone:
		return nil
	case dsFailed:
		return d.err
	}
	plan := d.plan
	if err := plan.src.force(); err != nil {
		d.fail(err)
		return err
	}
	n := plan.src.partsCount()
	parts := make([][]T, n)
	err := d.ctx.runStage(fusedStageName(plan.ops), n, func(tk *taskCtx) {
		tk.recordsIn = int64(plan.src.partLen(tk.part))
		var out []T
		if plan.bounded {
			out = make([]T, 0, plan.src.partLen(tk.part))
		}
		plan.feed(tk.part, tk, func(t T) { out = append(out, t) })
		parts[tk.part] = out
		tk.recordsOut = int64(len(out))
	})
	if err != nil {
		d.fail(err)
		return err
	}
	d.state = dsDone
	d.parts = parts
	d.plan = nil
	return nil
}

// fail transitions to the failed state (caller holds d.mu).
func (d *Dataset[T]) fail(err error) {
	d.state = dsFailed
	d.err = err
	d.parts = make([][]T, 1)
	d.plan = nil
}

// forced materializes the dataset and returns its partitions.
func (d *Dataset[T]) forced() ([][]T, error) {
	if err := d.force(); err != nil {
		return nil, err
	}
	return d.parts, nil
}

// partsCount implements forceable; only valid after force.
func (d *Dataset[T]) partsCount() int { return len(d.parts) }

// partLen implements forceable; only valid after force.
func (d *Dataset[T]) partLen(p int) int { return len(d.parts[p]) }

// fusedStageName labels the stage of a fused chain, e.g. "Map·Filter".
func fusedStageName(ops []string) string {
	if len(ops) == 0 {
		return "identity"
	}
	return strings.Join(ops, "·")
}

// narrowSrc is the composition base a new narrow operator builds on: the
// upstream stage boundary plus the already-fused feed to extend. For a
// materialized dataset, parts holds its partitions so whole-partition
// operators (MapPartitions) can read them without copying.
type narrowSrc[T any] struct {
	src     forceable
	feed    func(p int, tk *taskCtx, emit func(T))
	ops     []string
	bounded bool
	parts   [][]T // non-nil iff the dataset is already materialized
	err     error // non-nil iff the dataset already failed
}

// narrowBase inspects d and returns the composition base for a new narrow
// operator: the pending fused chain if d is lazy, or a partition walker
// over the cached data if d is materialized.
func narrowBase[T any](d *Dataset[T]) narrowSrc[T] {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch d.state {
	case dsFailed:
		return narrowSrc[T]{err: d.err}
	case dsDone:
		parts := d.parts
		return narrowSrc[T]{
			src: d,
			feed: func(p int, _ *taskCtx, emit func(T)) {
				for _, v := range parts[p] {
					emit(v)
				}
			},
			bounded: true,
			parts:   parts,
		}
	default:
		return narrowSrc[T]{src: d.plan.src, feed: d.plan.feed, ops: d.plan.ops, bounded: d.plan.bounded}
	}
}

// lazyFrom wraps a composed feed as a new lazy dataset.
func lazyFrom[T any](ctx *Context, base forceable, ops []string, bounded bool, feed func(p int, tk *taskCtx, emit func(T))) *Dataset[T] {
	return &Dataset[T]{ctx: ctx, state: dsLazy, plan: &narrowPlan[T]{src: base, feed: feed, ops: ops, bounded: bounded}}
}

// opLabel names one operator instance inside a fused chain for panic
// attribution: kind plus its 1-based position, e.g. "Filter#2".
func opLabel(kind string, ops []string) string {
	return fmt.Sprintf("%s#%d", kind, len(ops)+1)
}

// appendOp clones-and-appends so sibling chains sharing a prefix do not
// alias the ops slice.
func appendOp(ops []string, kind string) []string {
	out := make([]string, 0, len(ops)+1)
	out = append(out, ops...)
	return append(out, kind)
}

// MovedAs returns d with a different wire appender for its records: when a
// wide operator moves them out of process memory — GroupBy and CoGroupBy
// under an exchange or a memory budget, RangePartitionBy under either — wire
// writes each record in place of the registered codec's Append. The codec
// still decodes what arrives, so wire must write a valid encoding under it;
// what that encoding leaves out is the caller's contract (core moves a tuple
// projected onto the columns its rule reads). Records that stay where they
// lie, on the in-memory paths, are never encoded and are not affected. A nil
// wire moves records with the registered codec.
//
// The result shares d's partitions, or its failure, or its pending narrow
// chain: a pending chain is shared as a plan, so force d first (Err) when both
// d and the result are consumed. A narrow operator over the result starts
// again from the registered codec.
func (d *Dataset[T]) MovedAs(wire func(buf []byte, t T) []byte) *Dataset[T] {
	d.mu.Lock()
	defer d.mu.Unlock()
	return &Dataset[T]{ctx: d.ctx, state: d.state, parts: d.parts, err: d.err, plan: d.plan, wire: wire}
}

// movedCodec is c with wire, when set, as its Append.
func movedCodec[T any](c Codec[T], wire func(buf []byte, t T) []byte) Codec[T] {
	if wire != nil {
		c.Append = wire
	}
	return c
}

// Context returns the dataset's execution context.
func (d *Dataset[T]) Context() *Context { return d.ctx }

// Err is an action: it forces execution of any pending transformations and
// returns the sticky error, if any stage failed. Use it to materialize a
// dataset that will be consumed more than once.
func (d *Dataset[T]) Err() error { return d.force() }

// NumPartitions forces execution and returns the partition count. A failed
// dataset reports one (empty) placeholder partition.
func (d *Dataset[T]) NumPartitions() int {
	d.force()
	return len(d.parts)
}

// Partition forces execution and returns the contents of one partition.
// Callers must not mutate the returned slice. On a failed dataset only the
// empty placeholder partition 0 exists.
func (d *Dataset[T]) Partition(i int) []T {
	d.force()
	return d.parts[i]
}

// Collect is an action: it executes the pending plan — the whole narrow
// chain as one fused stage — and gathers all elements into one slice, in
// partition order.
func (d *Dataset[T]) Collect() ([]T, error) {
	parts, err := d.forced()
	if err != nil {
		return nil, err
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]T, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
}

// Count is an action: it returns the number of elements. On a dataset with
// a pending narrow chain it streams the fused pass through a counter
// without materializing (or caching) the elements; on a materialized
// dataset it sums the cached partition lengths.
func (d *Dataset[T]) Count() (int, error) {
	base := narrowBase(d)
	if base.err != nil {
		return 0, base.err
	}
	if base.parts != nil {
		n := 0
		for _, p := range base.parts {
			n += len(p)
		}
		return n, nil
	}
	if err := base.src.force(); err != nil {
		return 0, err
	}
	nParts := base.src.partsCount()
	counts := make([]int64, nParts)
	feed := base.feed
	err := d.ctx.runStage(fusedStageName(appendOp(base.ops, "Count")), nParts, func(tk *taskCtx) {
		n := int64(0)
		feed(tk.part, tk, func(T) { n++ })
		counts[tk.part] = n
		tk.recordsIn = n
	})
	if err != nil {
		return 0, err
	}
	total := 0
	for _, n := range counts {
		total += int(n)
	}
	return total, nil
}

// Map records the element-wise application of f; it fuses with adjacent
// narrow transformations when an action runs.
func Map[T, U any](d *Dataset[T], f func(T) U) *Dataset[U] {
	base := narrowBase(d)
	if base.err != nil {
		return errDataset[U](d.ctx, base.err)
	}
	op := opLabel("Map", base.ops)
	feed := base.feed
	return lazyFrom(d.ctx, base.src, appendOp(base.ops, "Map"), base.bounded, func(p int, tk *taskCtx, emit func(U)) {
		feed(p, tk, func(t T) {
			tk.op = op
			emit(f(t))
		})
	})
}

// FlatMap records the application of f with concatenation of the results;
// lazy and fusable like Map.
func FlatMap[T, U any](d *Dataset[T], f func(T) []U) *Dataset[U] {
	base := narrowBase(d)
	if base.err != nil {
		return errDataset[U](d.ctx, base.err)
	}
	op := opLabel("FlatMap", base.ops)
	feed := base.feed
	return lazyFrom(d.ctx, base.src, appendOp(base.ops, "FlatMap"), false, func(p int, tk *taskCtx, emit func(U)) {
		feed(p, tk, func(t T) {
			tk.op = op
			us := f(t)
			for _, u := range us {
				emit(u)
			}
		})
	})
}

// Filter records the predicate; lazy and fusable like Map.
func Filter[T any](d *Dataset[T], pred func(T) bool) *Dataset[T] {
	base := narrowBase(d)
	if base.err != nil {
		return d
	}
	op := opLabel("Filter", base.ops)
	feed := base.feed
	return lazyFrom(d.ctx, base.src, appendOp(base.ops, "Filter"), base.bounded, func(p int, tk *taskCtx, emit func(T)) {
		feed(p, tk, func(t T) {
			tk.op = op
			if pred(t) {
				emit(t)
			}
		})
	})
}

// MapPartitions records the whole-partition application of f, the hook
// wrappers use to amortize per-call overhead (the paper's physical
// operators receive sets of units, not single units). It fuses into the
// surrounding narrow chain, but because f needs its input partition as one
// slice, a pending upstream chain buffers its output here (a materialized
// upstream is passed through without copying).
func MapPartitions[T, U any](d *Dataset[T], f func(part int, in []T) []U) *Dataset[U] {
	base := narrowBase(d)
	if base.err != nil {
		return errDataset[U](d.ctx, base.err)
	}
	op := opLabel("MapPartitions", base.ops)
	feed := base.feed
	parts := base.parts
	return lazyFrom(d.ctx, base.src, appendOp(base.ops, "MapPartitions"), false, func(p int, tk *taskCtx, emit func(U)) {
		var in []T
		if parts != nil {
			in = parts[p]
		} else {
			feed(p, tk, func(t T) { in = append(in, t) })
		}
		tk.op = op
		out := f(p, in)
		for _, u := range out {
			emit(u)
		}
	})
}

// String describes the dataset shape for diagnostics. It forces execution.
func (d *Dataset[T]) String() string {
	parts, err := d.forced()
	if err != nil {
		return fmt.Sprintf("dataset(failed: %v)", err)
	}
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	return fmt.Sprintf("dataset(%d elems, %s parts)", n, itoa(len(parts)))
}
