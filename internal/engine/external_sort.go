package engine

import (
	"sort"

	"bigdansing/internal/spill"
)

// dstRec is one element staged for a scatter or sort spill, tagged with its
// destination partition. Only the element is written to disk; the
// destination is implied by which run the record lives in.
type dstRec[T any] struct {
	dst uint32
	v   T
}

// costEstimator prices elements against the memory budget by encoding the
// first few it sees and charging the running mean thereafter, so steady
// state adds no encode work on the hot buffering path.
type costEstimator[T any] struct {
	c       Codec[T]
	n       int64
	avg     int64
	scratch []byte
}

func (e *costEstimator[T]) cost(r dstRec[T]) int64 {
	if e.n < 16 {
		e.scratch = e.c.Append(e.scratch[:0], r.v)
		e.n++
		e.avg += (int64(len(e.scratch)) - e.avg) / e.n
	}
	return e.avg + recOverhead
}

// scatterSpill redistributes parts into n destination partitions under the
// memory budget, spilling per-destination runs when buffering is refused.
// route gives each record its destination and the record it is stored as.
//
// With runLess == nil the merge order is pure arrival order — each
// destination concatenates its runs in (source partition, flush) order, so
// every destination holds its records in the order the in-memory index
// scatter reads them in. With runLess set, runs are sorted by it and each
// destination k-way merges them, yielding partitions that are fully sorted
// (external merge sort); ties still resolve to arrival order.
func scatterSpill[T, U any](
	ctx *Context, stage string, parts [][]T, n int,
	route func(T) (int, U), c Codec[U], runLess func(a, b U) bool,
) ([][]U, error) {
	dir := spill.NewDir(ctx.spillDir, stage)
	defer dir.Cleanup()
	st := &spillStats{}
	defer st.flushInto(ctx)

	sortRun := func(buf []dstRec[U]) {
		sort.SliceStable(buf, func(i, j int) bool {
			if buf[i].dst != buf[j].dst {
				return buf[i].dst < buf[j].dst
			}
			if runLess == nil {
				return false
			}
			return runLess(buf[i].v, buf[j].v)
		})
	}
	sources, err := runSpillStage(ctx, stage, parts,
		func() *spiller[dstRec[U]] {
			est := &costEstimator[U]{c: c}
			return &spiller[dstRec[U]]{
				mm:      ctx.mem,
				dir:     dir,
				stats:   st,
				dstOf:   func(r dstRec[U]) int { return int(r.dst) },
				sortRun: sortRun,
				encode:  func(buf []byte, r dstRec[U]) []byte { return c.Append(buf, r.v) },
				cost:    est.cost,
			}
		},
		func(sp *spiller[dstRec[U]], _ *taskCtx, in []T) error {
			for _, v := range in {
				dst, u := route(v)
				if err := sp.add(dstRec[U]{dst: uint32(dst), v: u}); err != nil {
					return err
				}
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	defer releaseSources(ctx, sources)

	before := func(a, b dstRec[U]) bool { return false } // concat in arrival order
	if runLess != nil {
		before = func(a, b dstRec[U]) bool { return runLess(a.v, b.v) }
	}
	out := make([][]U, n)
	errs := make([]error, n)
	gerr := ctx.runStage(stage+":merge", n, func(tk *taskCtx) {
		dst := tk.part
		decode := func(b []byte) (dstRec[U], error) {
			v, _, derr := c.Decode(b)
			if derr != nil {
				return dstRec[U]{}, derr
			}
			return dstRec[U]{dst: uint32(dst), v: v}, nil
		}
		srcs, closers, merr := mergeSourcesFor(sources, dst,
			func(r dstRec[U]) int { return int(r.dst) }, decode)
		defer func() {
			for _, cl := range closers {
				cl()
			}
		}()
		if merr != nil {
			errs[dst] = merr
			return
		}
		if len(srcs) > 1 {
			st.merges.Add(1)
		}
		var res []U
		errs[dst] = kWayMerge(srcs, before, func(r dstRec[U]) error {
			res = append(res, r.v)
			tk.shuffled++
			return nil
		})
		out[dst] = res
		tk.recordsOut = int64(len(res))
	})
	if gerr == nil {
		gerr = firstError(errs)
	}
	if gerr != nil {
		return nil, gerr
	}
	return out, nil
}

// sampleBounds picks n-1 range boundaries by deterministic sampling (every
// k-th element), shared by the in-memory and external range partitioners.
func sampleBounds[T any](parts [][]T, total, n int, less func(a, b T) bool) []T {
	sampleTarget := 32 * n
	step := total / sampleTarget
	if step < 1 {
		step = 1
	}
	var sample []T
	i := 0
	for _, p := range parts {
		for _, v := range p {
			if i%step == 0 {
				sample = append(sample, v)
			}
			i++
		}
	}
	sort.SliceStable(sample, func(a, b int) bool { return less(sample[a], sample[b]) })
	bounds := make([]T, 0, n-1)
	for k := 1; k < n; k++ {
		idx := k * len(sample) / n
		if idx >= len(sample) {
			idx = len(sample) - 1
		}
		bounds = append(bounds, sample[idx])
	}
	return bounds
}

// boundsTarget returns the destination function of a boundary list: the
// index of the first boundary strictly greater than v.
func boundsTarget[T any](bounds []T, less func(a, b T) bool) func(T) int {
	return func(v T) int {
		lo, hi := 0, len(bounds)
		for lo < hi {
			mid := (lo + hi) / 2
			if less(v, bounds[mid]) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return lo
	}
}

// keepRoute turns a destination function into a scatter route that moves
// each record as itself.
func keepRoute[T any](dstOf func(T) int) func(T) (int, T) {
	return func(v T) (int, T) { return dstOf(v), v }
}

// sortByExternal is SortBy in the disk-backed regime: a true external merge
// sort. Elements are range-partitioned by sampled boundaries like the
// in-memory path, but each destination receives sorted runs and k-way
// merges them instead of buffering everything and sorting locally.
func sortByExternal[T any](d *Dataset[T], less func(a, b T) bool, n int, c Codec[T]) *Dataset[T] {
	ctx := d.ctx
	parts, err := d.forced()
	if err != nil {
		return errDataset[T](ctx, err)
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total == 0 {
		return fromParts(ctx, make([][]T, n))
	}
	bounds := sampleBounds(parts, total, n, less)
	target := boundsTarget(bounds, less)
	out, err := scatterSpill(ctx, "sortBy", parts, n, keepRoute(target), c, less)
	if err != nil {
		return errDataset[T](ctx, err)
	}
	return fromParts(ctx, out)
}
