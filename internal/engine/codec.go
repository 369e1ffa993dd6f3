package engine

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sync"
)

// Codec describes how elements of a dataset are persisted into spill runs
// when a wide operator goes out-of-core. Append must be injective (distinct
// values encode to distinct byte strings) and Decode must invert it exactly,
// so that a record surviving an encode→decode round trip hashes and groups
// identically to the original — the engine's external algorithms order
// records by (64-bit key hash, encoded key bytes), which is only a valid
// grouping order under that contract.
type Codec[T any] struct {
	// Append appends the encoding of t to buf and returns the extended
	// buffer.
	Append func(buf []byte, t T) []byte
	// Decode decodes one value from the front of buf, returning it and the
	// number of bytes consumed.
	Decode func(buf []byte) (T, int, error)
}

// codecRegistry maps reflect.Type of T to a Codec[T] boxed as any. Wide
// operators are generic, so they cannot require a codec statically; instead
// they look one up at runtime and fall back to the in-memory algorithm when
// the element type has none registered.
var codecRegistry sync.Map

// RegisterCodec makes elements of type T spillable. Data-model packages
// register their types at init time (the core layer registers model.Tuple,
// model.Value and model.ValueKey); the engine registers Go primitives below.
// Later registrations replace earlier ones.
func RegisterCodec[T any](c Codec[T]) {
	codecRegistry.Store(reflect.TypeFor[T](), c)
}

// codecFor looks up the codec registered for T.
func codecFor[T any]() (Codec[T], bool) {
	v, ok := codecRegistry.Load(reflect.TypeFor[T]())
	if !ok {
		var zero Codec[T]
		return zero, false
	}
	c, ok := v.(Codec[T])
	return c, ok
}

// exchangeCodec looks up the codec a record type needs to cross an
// installed Exchange. Unlike the spill regime, which may fall back to memory,
// an exchange has no in-process path: a type without a codec is an error
// that names it.
func exchangeCodec[T any](op string) (Codec[T], error) {
	c, ok := codecFor[T]()
	if !ok {
		return c, fmt.Errorf("engine: %s: %v has no registered codec, so it cannot cross the exchange (see RegisterCodec)", op, reflect.TypeFor[T]())
	}
	return c, nil
}

// pairCodec composes element codecs into a codec for Pair[K, V]: the key
// encoding followed by the value encoding. No length prefix is needed
// because Decode is sequential and each codec consumes exactly its own
// encoding.
func pairCodec[K comparable, V any](kc Codec[K], vc Codec[V]) Codec[Pair[K, V]] {
	return Codec[Pair[K, V]]{
		Append: func(buf []byte, p Pair[K, V]) []byte {
			buf = kc.Append(buf, p.Key)
			return vc.Append(buf, p.Value)
		},
		Decode: func(buf []byte) (Pair[K, V], int, error) {
			k, n, err := kc.Decode(buf)
			if err != nil {
				return Pair[K, V]{}, 0, err
			}
			v, m, err := vc.Decode(buf[n:])
			if err != nil {
				return Pair[K, V]{}, 0, err
			}
			return Pair[K, V]{Key: k, Value: v}, n + m, nil
		},
	}
}

// Primitive codecs, so engine-level datasets (and tests/benchmarks) spill
// without extra wiring.

func varintCodec[T ~int | ~int32 | ~int64]() Codec[T] {
	return Codec[T]{
		Append: func(buf []byte, v T) []byte { return binary.AppendVarint(buf, int64(v)) },
		Decode: func(buf []byte) (T, int, error) {
			v, n := binary.Varint(buf)
			if n <= 0 {
				return 0, 0, fmt.Errorf("engine: decode varint")
			}
			return T(v), n, nil
		},
	}
}

func uvarintCodec[T ~uint | ~uint32 | ~uint64]() Codec[T] {
	return Codec[T]{
		Append: func(buf []byte, v T) []byte { return binary.AppendUvarint(buf, uint64(v)) },
		Decode: func(buf []byte) (T, int, error) {
			v, n := binary.Uvarint(buf)
			if n <= 0 {
				return 0, 0, fmt.Errorf("engine: decode uvarint")
			}
			return T(v), n, nil
		},
	}
}

// StringCodec is the length-prefixed string codec (exported for reuse when
// composing codecs for user types).
func StringCodec() Codec[string] {
	return Codec[string]{
		Append: func(buf []byte, s string) []byte {
			buf = binary.AppendUvarint(buf, uint64(len(s)))
			return append(buf, s...)
		},
		Decode: func(buf []byte) (string, int, error) {
			n, sz := binary.Uvarint(buf)
			if sz <= 0 || n > uint64(len(buf)-sz) {
				return "", 0, fmt.Errorf("engine: decode string")
			}
			return string(buf[sz : sz+int(n)]), sz + int(n), nil
		},
	}
}

// Float64Codec encodes the exact bit pattern (NaN payloads and -0 survive
// the round trip).
func Float64Codec() Codec[float64] {
	return Codec[float64]{
		Append: func(buf []byte, f float64) []byte {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
			return append(buf, b[:]...)
		},
		Decode: func(buf []byte) (float64, int, error) {
			if len(buf) < 8 {
				return 0, 0, fmt.Errorf("engine: decode float64")
			}
			return math.Float64frombits(binary.LittleEndian.Uint64(buf)), 8, nil
		},
	}
}

func init() {
	RegisterCodec(varintCodec[int]())
	RegisterCodec(varintCodec[int32]())
	RegisterCodec(varintCodec[int64]())
	RegisterCodec(uvarintCodec[uint]())
	RegisterCodec(uvarintCodec[uint32]())
	RegisterCodec(uvarintCodec[uint64]())
	RegisterCodec(StringCodec())
	RegisterCodec(Float64Codec())
}
