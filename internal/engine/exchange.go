package engine

import (
	"fmt"
	"sync"
)

// The Exchange seam is how the engine talks to its non-local backends
// without importing them. The wide transformations that move data between
// partitions — grouping, co-grouping, RangePartitionBy, Cartesian — know how
// to turn their records into codec-encoded bytes (the spill regime fixed
// that format in PR 3); with an Exchange installed they hand those bytes to
// it instead of concatenating slices in-process. internal/netexec moves them
// through separate OS worker processes over TCP (BackendNet);
// internal/mapred writes them to run files on disk and reads them back
// (installed through Config.Exchange). The engine stays oblivious to
// sockets, files, retries and placement: the Exchange contract is purely
// about bytes and ordering.

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

// EncodedRec is one codec-encoded record staged for a distributed exchange,
// tagged with its destination partition.
type EncodedRec struct {
	Dst  uint32
	Data []byte
}

// Exchange is the data plane of a non-local backend. Implementations must
// be safe for concurrent use (independent shuffles may overlap) and must
// preserve the engine's ordering contract: the records of destination d are
// returned in (source partition index, within-source order) — exactly the
// order the in-memory index scatter reads them in — so every backend
// produces element-for-element identical results.
type Exchange interface {
	// Shuffle routes each source partition's encoded records to their Dst
	// (in [0, n)) through the backend's workers and gathers the n
	// destination partitions back. The returned byte slices are owned by
	// the caller. op names the operation for observability.
	Shuffle(op string, parts [][]EncodedRec, n int) ([][][]byte, error)
	// Cartesian broadcasts the encoded right side to the workers owning
	// the left partitions and expands the cross product worker-local: for
	// left partition p the result holds, for each left record l in order,
	// the concatenations l||r for each right record r in order — which is
	// the valid encoding of JoinRow under the engine's sequential codecs.
	Cartesian(op string, left [][][]byte, right [][]byte) ([][][]byte, error)
	// Workers reports the number of worker processes (or task slots).
	Workers() int
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

// slabBytes caps the slabs exchangeScatter encodes a source partition into.
const slabBytes = 256 << 10

// exchangeScatter is the exchange counterpart of the in-memory index
// scatter, on the TCP and disk exchanges alike: route gives every record of
// every source partition its destination and the record it travels as,
// which is encoded (a parallel stage, so a panicking codec is attributed
// and recovered like any operator panic); the bytes go through the
// exchange, and the gathered destination partitions are decoded (another
// parallel stage). Destination p receives its records in (source, arrival)
// order, the order the in-memory regime reads them in.
//
// A source partition is encoded into a few large slabs, each record a
// sub-slice capped at its own end. A new slab starts when the current one
// has less room left than the largest record so far, and is sized for the
// records still to come at that size, up to slabBytes.
func exchangeScatter[T, U any](ctx *Context, op string, parts [][]T, n int, c Codec[U], route func(T) (int, U)) ([][]U, error) {
	enc := make([][]EncodedRec, len(parts))
	err := ctx.runStage(op+":encode", len(parts), func(tk *taskCtx) {
		in := parts[tk.part]
		tk.recordsIn = int64(len(in))
		tk.op = "Encode"
		recs := make([]EncodedRec, len(in))
		var slab []byte
		largest := 16
		for i, v := range in {
			dst, u := route(v)
			if cap(slab)-len(slab) < largest {
				slab = make([]byte, 0, min(slabBytes, largest*(len(in)-i)))
			}
			start := len(slab)
			slab = c.Append(slab, u)
			largest = max(largest, len(slab)-start)
			recs[i] = EncodedRec{Dst: uint32(dst), Data: slab[start:len(slab):len(slab)]}
		}
		tk.op = ""
		enc[tk.part] = recs
		tk.recordsOut = int64(len(in))
	})
	if err != nil {
		return nil, err
	}
	raw, err := ctx.exchange.Shuffle(op, enc, n)
	if err != nil {
		return nil, err
	}
	out := make([][]U, n)
	errs := make([]error, n)
	derr := ctx.runStage(op+":decode", n, func(tk *taskCtx) {
		in := raw[tk.part]
		tk.recordsIn = int64(len(in))
		bucket := make([]U, 0, len(in))
		for _, b := range in {
			v, used, err := c.Decode(b)
			if err != nil {
				errs[tk.part] = fmt.Errorf("engine: %s: decode gathered record: %w", op, err)
				return
			}
			if used != len(b) {
				errs[tk.part] = fmt.Errorf("engine: %s: gathered record has %d trailing bytes", op, len(b)-used)
				return
			}
			bucket = append(bucket, v)
		}
		out[tk.part] = bucket
		tk.shuffled += int64(len(bucket))
		tk.recordsOut = int64(len(bucket))
	})
	if derr == nil {
		derr = firstError(errs)
	}
	if derr != nil {
		return nil, derr
	}
	return out, nil
}

// exchangeCartesian is the exchange cross product: the left partitions and
// the broadcast right side cross the exchange once, the pair expansion runs
// worker-local (the workers only concatenate opaque encodings, so they need
// no type knowledge), and the coordinator decodes the JoinRow stream.
func exchangeCartesian[A, B any](ctx *Context, left [][]A, right []B, ac Codec[A], bc Codec[B]) ([][]JoinRow[A, B], error) {
	encLeft := make([][][]byte, len(left))
	err := ctx.runStage("cartesian:encode", len(left), func(tk *taskCtx) {
		in := left[tk.part]
		tk.recordsIn = int64(len(in))
		tk.op = "Encode"
		recs := make([][]byte, len(in))
		for i, v := range in {
			recs[i] = ac.Append(nil, v)
		}
		tk.op = ""
		encLeft[tk.part] = recs
	})
	if err != nil {
		return nil, err
	}
	encRight := make([][]byte, len(right))
	for i, v := range right {
		encRight[i] = bc.Append(nil, v)
	}
	raw, err := ctx.exchange.Cartesian("cartesian", encLeft, encRight)
	if err != nil {
		return nil, err
	}
	out := make([][]JoinRow[A, B], len(raw))
	errs := make([]error, len(raw))
	derr := ctx.runStage("cartesian:decode", len(raw), func(tk *taskCtx) {
		in := raw[tk.part]
		tk.recordsIn = int64(len(in))
		rows := make([]JoinRow[A, B], 0, len(in))
		for _, b := range in {
			a, n, err := ac.Decode(b)
			if err != nil {
				errs[tk.part] = fmt.Errorf("engine: cartesian: decode left: %w", err)
				return
			}
			bb, m, err := bc.Decode(b[n:])
			if err != nil {
				errs[tk.part] = fmt.Errorf("engine: cartesian: decode right: %w", err)
				return
			}
			if n+m != len(b) {
				errs[tk.part] = fmt.Errorf("engine: cartesian: pair record has %d trailing bytes", len(b)-n-m)
				return
			}
			rows = append(rows, JoinRow[A, B]{Left: a, Right: bb})
		}
		out[tk.part] = rows
		tk.recordsOut = int64(len(rows))
	})
	if derr == nil {
		derr = firstError(errs)
	}
	if derr != nil {
		return nil, derr
	}
	return out, nil
}
