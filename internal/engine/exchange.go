package engine

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
)

// BackendKind selects a Context's execution backend.
type BackendKind uint8

const (
	// BackendLocal is the in-process worker pool (the default).
	BackendLocal BackendKind = iota
	// BackendNet is the networked multi-process backend: partition
	// exchanges move codec-encoded frames between worker processes over
	// TCP sockets (implemented by internal/netexec).
	BackendNet
)

// String names the backend for diagnostics and flags.
func (k BackendKind) String() string {
	switch k {
	case BackendLocal:
		return "local"
	case BackendNet:
		return "net"
	default:
		return fmt.Sprintf("backend(%d)", uint8(k))
	}
}

// Exchange is the data plane of a non-local backend, the seam through which
// the wide transformations — grouping, co-grouping, RangePartitionBy,
// Cartesian — move their records without the engine importing the
// backend: internal/netexec through worker processes over TCP
// (BackendNet), internal/mapred through run files on disk
// (Config.Exchange). Its unit of transfer is a run: codec-encoded records
// back to back, each a uvarint byte length followed by that many bytes
// (AppendRecord writes one, ReadRun walks them). An exchange moves runs as
// opaque bytes. Implementations must be safe for concurrent use
// (independent shuffles may overlap) and must preserve the engine's
// ordering contract: destination d receives its records in (source
// partition index, within-source order) — exactly the order the in-memory
// index scatter reads them in — so every backend produces element-for-element
// identical results.
type Exchange interface {
	// Shuffle moves runs[src][dst], source partition src's run for
	// destination dst (dst in [0, n)), through the backend's workers and
	// returns one run per destination: its runs concatenated in source
	// order. The caller owns the returned runs and keeps runs unchanged
	// until Shuffle returns. op names the operation for observability.
	Shuffle(op string, runs [][][]byte, n int) ([][]byte, error)
	// Cartesian broadcasts the right run to the workers owning the left
	// partitions and expands the cross product worker-local (CrossRuns):
	// for left partition p the result is the run holding, for each left
	// record l in order, the concatenations l||r for each right record r in
	// order — the valid encoding of JoinRow under the engine's sequential
	// codecs.
	Cartesian(op string, left [][]byte, right []byte) ([][]byte, error)
	// Close releases what the backend holds: connections, spawned worker
	// processes, files. Idempotent.
	Close() error
}

// exchangeFactory builds an Exchange for a backend kind. The Observer is
// the context's event sink (Stats plus any user observer), which the
// exchange feeds its spans and net metrics.
type exchangeFactory func(cfg Config, obs Observer) (Exchange, error)

var (
	exchangeMu        sync.RWMutex
	exchangeFactories = map[BackendKind]exchangeFactory{}
)

// RegisterExchange installs the factory for a backend kind. The netexec
// package registers BackendNet at init time; importing it (directly or via
// cmd/serve wiring) is what makes `Backend: BackendNet` constructible.
func RegisterExchange(kind BackendKind, f func(cfg Config, obs Observer) (Exchange, error)) {
	exchangeMu.Lock()
	defer exchangeMu.Unlock()
	exchangeFactories[kind] = f
}

// newExchange builds the exchange for cfg.Backend.
func newExchange(cfg Config, obs Observer) (Exchange, error) {
	exchangeMu.RLock()
	f, ok := exchangeFactories[cfg.Backend]
	exchangeMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("engine: backend %q has no registered exchange (import bigdansing/internal/netexec)", cfg.Backend)
	}
	return f(cfg, obs)
}

// AppendRecord appends one record, the concatenation of parts, to run.
func AppendRecord(run []byte, parts ...[]byte) []byte {
	size := 0
	for _, p := range parts {
		size += len(p)
	}
	run = binary.AppendUvarint(run, uint64(size))
	for _, p := range parts {
		run = append(run, p...)
	}
	return run
}

// appendEncoded appends t, encoded by enc, to run as one record. The length
// is written before the encoding is known: one byte is reserved for it, and
// a record of 128 bytes or more is shifted right to make room for its
// longer prefix.
func appendEncoded[T any](run []byte, t T, enc func([]byte, T) []byte) []byte {
	start := len(run)
	run = enc(append(run, 0), t)
	size := len(run) - start - 1
	if size < 0x80 {
		run[start] = byte(size)
		return run
	}
	var prefix [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(prefix[:], uint64(size))
	run = append(run, prefix[1:n]...)
	copy(run[start+n:], run[start+1:start+1+size])
	copy(run[start:], prefix[:n])
	return run
}

// scratchPool recycles exchangeScatter's scratch slabs. After runSample
// records it makes sure a slab has room for the rest at their mean size.
var scratchPool = sync.Pool{New: func() any { return new([]byte) }}

const runSample = 256

// encodeRun encodes in as one run.
func encodeRun[T any](in []T, enc func([]byte, T) []byte) (run []byte) {
	for _, t := range in {
		run = appendEncoded(run, t, enc)
	}
	return run
}

// RunReader walks the records of a run in order. Next returns each record
// as a window of the run, capped at its own end; once it returns false, Err
// says whether the run was whole. A corrupt length, a record overrunning
// the run, a non-canonical length (AppendRecord never writes one) and, when
// a count is expected, a run holding fewer or more records are errors.
type RunReader struct {
	rest []byte
	left int // records still expected; negative: any number
	err  error
}

// ReadRun starts a walk over run that expects want records (want < 0: any
// number).
func ReadRun(run []byte, want int) RunReader {
	return RunReader{rest: run, left: want}
}

// Next returns the next record, or false at the end of the run or on the
// first error.
func (r *RunReader) Next() ([]byte, bool) {
	size, n := binary.Uvarint(r.rest)
	switch {
	case r.err != nil:
	case len(r.rest) == 0:
		if r.left > 0 {
			r.err = fmt.Errorf("engine: run ends %d records short", r.left)
		}
	case r.left == 0:
		r.err = fmt.Errorf("engine: run holds %d bytes past its last record", len(r.rest))
	case n <= 0:
		r.err = fmt.Errorf("engine: corrupt record length in run")
	case n > 1 && r.rest[n-1] == 0:
		r.err = fmt.Errorf("engine: non-canonical record length in run")
	case size > uint64(len(r.rest)-n):
		r.err = fmt.Errorf("engine: record overruns the run (%d > %d)", size, len(r.rest)-n)
	default:
		end := n + int(size)
		rec := r.rest[n:end:end]
		r.rest, r.left = r.rest[end:], r.left-1
		return rec, true
	}
	return nil, false
}

// Err is the error that ended the walk, nil if the run was whole.
func (r *RunReader) Err() error { return r.err }

// CrossRuns is the cross product of two runs: for each left record l in
// order, the records l||r for each right record r in order.
func CrossRuns(left, right []byte) ([]byte, error) {
	var rs [][]byte
	rd := ReadRun(right, -1)
	for r, ok := rd.Next(); ok; r, ok = rd.Next() {
		rs = append(rs, r)
	}
	if err := rd.Err(); err != nil {
		return nil, err
	}
	var out []byte
	ld := ReadRun(left, -1)
	for l, ok := ld.Next(); ok; l, ok = ld.Next() {
		for _, r := range rs {
			out = AppendRecord(out, l, r)
		}
	}
	return out, ld.Err()
}

// decodeRuns decodes each run, in a stage of its own, into a partition of
// exactly want[p] records, each of which dec must consume whole. moved
// counts the records as shuffled.
func decodeRuns[T any](ctx *Context, op string, runs [][]byte, want []int, moved bool, dec func([]byte) (T, int, error)) ([][]T, error) {
	out := make([][]T, len(runs))
	err := ctx.runStage(op+":decode", len(runs), func(tk *taskCtx) {
		p := tk.part
		tk.recordsIn = int64(want[p])
		recs := make([]T, 0, want[p])
		rd := ReadRun(runs[p], want[p])
		for rec, ok := rd.Next(); ok && tk.err == nil; rec, ok = rd.Next() {
			v, n, err := dec(rec)
			if err == nil && n != len(rec) {
				err = fmt.Errorf("record has %d trailing bytes", len(rec)-n)
			}
			recs, tk.err = append(recs, v), err
		}
		if tk.err = cmp.Or(tk.err, rd.Err()); tk.err != nil {
			tk.err = fmt.Errorf("engine: %s: partition %d: %w", op, p, tk.err)
			return
		}
		out[p] = recs
		if moved {
			tk.shuffled += int64(len(recs))
		}
		tk.recordsOut = int64(len(recs))
	})
	return out, err
}

// exchangeScatter is the exchange counterpart of the in-memory index
// scatter. One task per source partition gives each record its destination
// (dstOf) and encoding (enc) in one pass, in arrival order, into a pooled
// scratch slab, then copies the records, grouped by destination, into one
// slab of exact size: each destination's run is a window of it. What the
// exchange gathers must hold exactly the bytes routed to each destination,
// in (source, arrival) order, the order the in-memory regime reads. It
// returns the gathered runs and the records routed to each, for the
// callers to decode where they consume them.
func exchangeScatter[T any](ctx *Context, op string, parts [][]T, n int, dstOf func(T) int, enc func([]byte, T) []byte) ([][]byte, []int, error) {
	runs := make([][][]byte, len(parts))
	counts := make([][]int32, len(parts))
	err := ctx.runStage(op+":encode", len(parts), func(tk *taskCtx) {
		in := parts[tk.part]
		tk.recordsIn = int64(len(in))
		scratch := scratchPool.Get().(*[]byte)
		defer scratchPool.Put(scratch)
		idx := grabInt32s(2 * len(in))
		defer int32Pool.Put(idx)
		dsts, ends := (*idx)[:len(in)], (*idx)[len(in):]
		cnt := make([]int32, n)
		cut := make([]int, n+1) // bytes per destination, then where each starts
		tk.op = "Encode"
		buf := (*scratch)[:0]
		for i, t := range in {
			if i == runSample {
				buf = slices.Grow(buf, len(buf)/i*(len(in)-i)*17/16)
			}
			dst := dstOf(t)
			start := len(buf)
			buf = appendEncoded(buf, t, enc)
			if len(buf) > math.MaxInt32 {
				tk.err = fmt.Errorf("engine: %s: source partition %d encodes to more than 2 GiB", op, tk.part)
				return
			}
			dsts[i], ends[i] = int32(dst), int32(len(buf))
			cnt[dst]++
			cut[dst+1] += len(buf) - start
		}
		tk.op = ""
		*scratch = buf
		for dst := 1; dst <= n; dst++ {
			cut[dst] += cut[dst-1]
		}
		slab := make([]byte, len(buf))
		bySrc := make([][]byte, n)
		for dst := range n {
			bySrc[dst] = slab[cut[dst]:cut[dst]:cut[dst+1]]
		}
		start := int32(0)
		for i, dst := range dsts {
			bySrc[dst] = append(bySrc[dst], buf[start:ends[i]]...)
			start = ends[i]
		}
		runs[tk.part], counts[tk.part] = bySrc, cnt
		tk.recordsOut = int64(len(in))
	})
	if err != nil {
		return nil, nil, err
	}
	got, err := ctx.exchange.Shuffle(op, runs, n)
	if err == nil && len(got) != n {
		err = fmt.Errorf("engine: %s: exchange returned %d destinations, want %d", op, len(got), n)
	}
	if err != nil {
		return nil, nil, err
	}
	want := make([]int, n)
	for dst := range n {
		size := 0
		for src, cnt := range counts {
			want[dst] += int(cnt[dst])
			size += len(runs[src][dst])
		}
		if len(got[dst]) != size {
			return nil, nil, fmt.Errorf("engine: %s: destination %d gathered %d bytes, %d were routed to it", op, dst, len(got[dst]), size)
		}
	}
	return got, want, nil
}

// exchangeCartesian is the exchange cross product: the left partitions and
// the broadcast right side cross the exchange once as runs, the pair
// expansion runs worker-local (the workers only concatenate opaque
// encodings, so they need no type knowledge), and the coordinator decodes
// the JoinRow runs.
func exchangeCartesian[A, B any](ctx *Context, left [][]A, right []B, ac Codec[A], bc Codec[B]) ([][]JoinRow[A, B], error) {
	encLeft := make([][]byte, len(left))
	err := ctx.runStage("cartesian:encode", len(left), func(tk *taskCtx) {
		in := left[tk.part]
		tk.recordsIn = int64(len(in))
		tk.op = "Encode"
		encLeft[tk.part] = encodeRun(in, ac.Append)
		tk.op = ""
	})
	if err != nil {
		return nil, err
	}
	raw, err := ctx.exchange.Cartesian("cartesian", encLeft, encodeRun(right, bc.Append))
	if err != nil {
		return nil, err
	}
	if len(raw) != len(left) {
		return nil, fmt.Errorf("engine: cartesian: exchange returned %d partitions, want %d", len(raw), len(left))
	}
	want := make([]int, len(left))
	for p, l := range left {
		want[p] = len(l) * len(right)
	}
	return decodeRuns(ctx, "cartesian", raw, want, false, func(b []byte) (JoinRow[A, B], int, error) {
		a, n, err := ac.Decode(b)
		if err != nil {
			return JoinRow[A, B]{}, 0, fmt.Errorf("decode left: %w", err)
		}
		r, m, err := bc.Decode(b[n:])
		if err != nil {
			return JoinRow[A, B]{}, 0, fmt.Errorf("decode right: %w", err)
		}
		return JoinRow[A, B]{Left: a, Right: r}, n + m, nil
	})
}
