package engine

import (
	"slices"

	"bigdansing/internal/spill"
)

// costEstimator prices what an element holds besides its buffer slot by
// encoding the first few it sees and charging the running mean thereafter,
// so steady state adds no encode work on the hot buffering path.
type costEstimator[T any] struct {
	c       Codec[T]
	n       int64
	avg     int64
	scratch []byte
}

func (e *costEstimator[T]) cost(v T) int64 {
	if e.n < 16 {
		e.scratch = e.c.Append(e.scratch[:0], v)
		e.n++
		e.avg += (int64(len(e.scratch)) - e.avg) / e.n
	}
	return e.avg
}

// lessCompare turns a strict weak order into a three-way comparison.
func lessCompare[T any](less func(a, b T) bool) func(a, b T) int {
	return func(a, b T) int {
		if less(a, b) {
			return -1
		}
		if less(b, a) {
			return 1
		}
		return 0
	}
}

// scatterSpill redistributes parts into n destination partitions under the
// memory budget, spilling per-destination runs when buffering is refused.
// route gives each record its destination and the record it is stored as.
// The merge order is pure arrival order: each destination concatenates its
// runs in (source partition, flush) order, so every destination holds its
// records in the order the in-memory index scatter reads them in.
func scatterSpill[T, U any](
	ctx *Context, stage string, parts [][]T, n int,
	route func(T) (int, U), c Codec[U],
) ([][]U, error) {
	dir := spill.NewDir(ctx.spillDir, stage)
	defer dir.Cleanup()
	st := &spillStats{}
	defer st.flushInto(ctx)

	compare := func(a, b U) int { return 0 } // concat in arrival order
	sources, err := runSpillStage(ctx, stage, parts,
		func() *spiller[U] {
			est := &costEstimator[U]{c: c}
			return &spiller[U]{
				mm:     ctx.mem,
				dir:    dir,
				stats:  st,
				encode: c.Append,
				cost:   est.cost,
			}
		},
		func(sp *spiller[U], _ *taskCtx, in []T) error {
			for _, v := range in {
				dst, u := route(v)
				if err := sp.add(dst, 0, u); err != nil {
					return err
				}
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	defer releaseSources(ctx, sources)

	out := make([][]U, n)
	gerr := ctx.runStage(stage+":merge", n, func(tk *taskCtx) {
		dst := tk.part
		decode := func(b []byte) (U, error) {
			v, _, derr := c.Decode(b)
			return v, derr
		}
		srcs, closers, merr := mergeSourcesFor(sources, dst, decode)
		defer func() {
			for _, cl := range closers {
				cl()
			}
		}()
		if merr != nil {
			tk.err = merr
			return
		}
		if len(srcs) > 1 {
			st.merges.Add(1)
		}
		res := make([]U, 0, destLen(sources, dst))
		tk.err = kWayMerge(srcs, compare, func(v U) error {
			res = append(res, v)
			return nil
		})
		out[dst] = res
		tk.shuffled += int64(len(res))
		tk.recordsOut = int64(len(res))
	})
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
	slices.SortStableFunc(sample, lessCompare(less))
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
