// Package model defines the data model shared by every layer of BigDansing:
// typed values, tuples (the relational data units of the paper), schemas,
// cells (the "elements" of data units), violations, and possible fixes.
//
// The paper abstracts input data as "data units" with "elements" identified
// by model-specific functions (Section 2.1). In this reproduction the
// unit is the Tuple.
package model

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the runtime type of a Value.
type Kind uint8

const (
	// KindNull is the zero Value; it compares less than every other value.
	KindNull Kind = iota
	// KindString is a UTF-8 string value.
	KindString
	// KindInt is a 64-bit signed integer value.
	KindInt
	// KindFloat is a 64-bit floating point value.
	KindFloat
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed cell value. It is a small tagged union kept
// flat (no pointers, no interface boxing) so that large datasets stay cheap
// to copy between dataflow partitions.
type Value struct {
	Kind Kind
	Str  string
	Int  int64
	Flt  float64
}

// Null returns the null value.
func Null() Value { return Value{} }

// S returns a string Value.
func S(s string) Value { return Value{Kind: KindString, Str: s} }

// I returns an integer Value.
func I(i int64) Value { return Value{Kind: KindInt, Int: i} }

// F returns a float Value.
func F(f float64) Value { return Value{Kind: KindFloat, Flt: f} }

// String renders the value for display and for use as a grouping key.
// Distinct values of the same kind always render distinctly.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return ""
	case KindString:
		return v.Str
	case KindInt:
		return strconv.FormatInt(v.Int, 10)
	case KindFloat:
		return strconv.FormatFloat(v.Flt, 'g', -1, 64)
	default:
		return ""
	}
}

// Key returns a string key that is unique across kinds, where I(1) does not
// collide with S("1"). It allocates a string per call, so it survives only
// for diagnostics and serialization boundaries (the disk-based MapReduce
// backend shuffles string keys by design); hot grouping paths use the
// comparable MapKey and the 64-bit Hash instead. Floats are normalized like
// MapKey (-0 renders as 0, every NaN identically) so the two keyings induce
// the same groups.
func (v Value) Key() string {
	switch v.Kind {
	case KindNull:
		return "n|"
	case KindString:
		return "s|" + v.Str
	case KindInt:
		return "i|" + strconv.FormatInt(v.Int, 10)
	case KindFloat:
		return "f|" + strconv.FormatFloat(v.Normalize().Flt, 'g', -1, 64)
	default:
		return "?|"
	}
}

// canonicalNaN is the single NaN bit pattern every NaN normalizes to, so
// NaN-valued cells land in one group instead of each NaN being its own
// never-equal key.
var canonicalNaN = math.Float64frombits(0x7ff8000000000000)

// Normalize returns the value with float edge cases canonicalized for
// keying: -0 becomes +0 and every NaN becomes one fixed NaN bit pattern.
// Without this a NaN map key would never equal itself (silently splitting a
// group) and -0 would split from +0 even though Compare treats them equal.
// Non-float values are returned unchanged.
func (v Value) Normalize() Value {
	if v.Kind == KindFloat {
		if v.Flt != v.Flt {
			v.Flt = canonicalNaN
		} else if v.Flt == 0 {
			v.Flt = 0 // collapses -0 to +0
		}
	}
	return v
}

// ValueKey is the comparable grouping key of a Value: distinct kinds are
// distinct keys (I(1), F(1) and S("1") never merge), floats are normalized
// per Normalize and stored by bit pattern so NaN keys behave as ordinary map
// keys. Use it wherever a Value keys a Go map or an engine shuffle; it
// allocates nothing, unlike the string Key.
type ValueKey struct {
	Kind Kind
	Str  string
	Num  uint64
}

// MapKey returns the comparable grouping key of the value.
func (v Value) MapKey() ValueKey {
	switch v.Kind {
	case KindString:
		return ValueKey{Kind: KindString, Str: v.Str}
	case KindInt:
		return ValueKey{Kind: KindInt, Num: uint64(v.Int)}
	case KindFloat:
		return ValueKey{Kind: KindFloat, Num: math.Float64bits(v.Normalize().Flt)}
	default:
		return ValueKey{}
	}
}

// Per-kind hash seeds keep simple values of different kinds (I(1), F(1),
// S("1"), Null) from colliding in the 64-bit hash space.
const (
	hashSeedNull   = 0x9ae16a3b2f90404f
	hashSeedString = 0xc949d7c7509e6557
	hashSeedInt    = 0xff51afd7ed558ccd
	hashSeedFloat  = 0xc4ceb9fe1a85ec53
)

// Hash returns a cheap 64-bit hash of the value for shuffle partitioning.
// It never materializes a string, normalizes floats like MapKey, and mixes a
// per-kind seed so distinct kinds hash apart. Equal MapKeys hash equal.
func (v Value) Hash() uint64 {
	switch v.Kind {
	case KindString:
		return hashBytes64(hashSeedString, v.Str)
	case KindInt:
		return mix64(uint64(v.Int) ^ hashSeedInt)
	case KindFloat:
		return mix64(math.Float64bits(v.Normalize().Flt) ^ hashSeedFloat)
	default:
		return mix64(hashSeedNull)
	}
}

// hashBytes64 is FNV-1a over the string bytes, folded through mix64; the
// seed keeps kinds apart. It allocates nothing.
func hashBytes64(seed uint64, s string) uint64 {
	h := uint64(14695981039346656037) ^ seed
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return mix64(h)
}

// mix64 is a finalizer-style bit mixer (splitmix64) spreading integer
// payloads uniformly over the hash space.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Float returns the value as a float64. Integers widen; strings parse if
// possible, otherwise 0.
func (v Value) Float() float64 {
	switch v.Kind {
	case KindFloat:
		return v.Flt
	case KindInt:
		return float64(v.Int)
	case KindString:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.Str), 64)
		if err != nil {
			return 0
		}
		return f
	default:
		return 0
	}
}

// Equal reports whether two values are equal. Numeric values of different
// kinds compare by numeric value, so I(2) equals F(2).
func (v Value) Equal(o Value) bool { return Compare(v, o) == 0 }

// numeric reports whether the value carries a numeric kind.
func (v Value) numeric() bool { return v.Kind == KindInt || v.Kind == KindFloat }

// Compare orders two values: null < everything; numerics order numerically
// (across int/float kinds); strings order lexicographically; a numeric
// compared with a string falls back to string comparison of renderings.
func Compare(a, b Value) int {
	if a.Kind == KindFloat && b.Kind == KindFloat { // the hot case of DC repair
		switch {
		case a.Flt < b.Flt:
			return -1
		case a.Flt > b.Flt:
			return 1
		default:
			return 0
		}
	}
	if a.Kind == KindNull || b.Kind == KindNull {
		switch {
		case a.Kind == KindNull && b.Kind == KindNull:
			return 0
		case a.Kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if a.numeric() && b.numeric() {
		if a.Kind == KindInt && b.Kind == KindInt {
			switch {
			case a.Int < b.Int:
				return -1
			case a.Int > b.Int:
				return 1
			default:
				return 0
			}
		}
		af, bf := a.Float(), b.Float()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	return strings.Compare(a.String(), b.String())
}

// Parse converts raw text to a Value of the requested kind. Unparseable
// numerics become null, matching the lenient CSV ingestion the paper's
// parsers perform.
func Parse(raw string, kind Kind) Value {
	switch kind {
	case KindString:
		return S(raw)
	case KindInt:
		i, err := strconv.ParseInt(strings.TrimSpace(raw), 10, 64)
		if err != nil {
			return Null()
		}
		return I(i)
	case KindFloat:
		f, err := strconv.ParseFloat(strings.TrimSpace(raw), 64)
		if err != nil {
			return Null()
		}
		return F(f)
	default:
		return Null()
	}
}
