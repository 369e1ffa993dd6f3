package model

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// Property tests for the spill contract of the binary codecs: the encoding
// must be injective and the decode must invert it exactly, so that a value
// surviving an encode→decode round trip groups (MapKey), hashes (Hash) and
// partitions identically to the original. The engine's external shuffle
// orders records by (hash, encoded key bytes) and relies on this.

// edgeValues are the values most likely to break a codec: float edge cases
// (NaN bit patterns, signed zeros, infinities, denormals), empty and
// multi-byte UTF-8 strings, and integer extremes.
func edgeValues() []Value {
	return []Value{
		Null(),
		S(""), S("a"), S("héllo wörld"), S("日本語テキスト"), S("emoji 🧹🧽"),
		S(string([]byte{0xff, 0xfe, 0x00})), // invalid UTF-8 must survive too
		S("\x00embedded\x00nulls\x00"),
		I(0), I(1), I(-1), I(math.MaxInt64), I(math.MinInt64),
		F(0), F(math.Copysign(0, -1)), // +0 and -0
		F(math.NaN()), F(math.Float64frombits(0x7ff8000000000001)), // distinct NaN payloads
		F(math.Inf(1)), F(math.Inf(-1)),
		F(math.SmallestNonzeroFloat64), F(-math.SmallestNonzeroFloat64),
		F(math.MaxFloat64), F(3.141592653589793),
	}
}

// TestValueCodecRoundTripPreservesGrouping checks, for every edge value and
// a large random sample, that decode(encode(v)) produces a value with the
// same MapKey and Hash as v — i.e. spilling a value to disk and reading it
// back can never move it to a different group or partition.
func TestValueCodecRoundTripPreservesGrouping(t *testing.T) {
	vals := edgeValues()
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 2000; i++ {
		vals = append(vals, randomValue(r))
	}
	for _, v := range vals {
		buf := AppendValue(nil, v)
		got, n, err := DecodeValue(buf)
		if err != nil {
			t.Fatalf("decode %v: %v", v, err)
		}
		if n != len(buf) {
			t.Fatalf("decode %v consumed %d of %d", v, n, len(buf))
		}
		if got.MapKey() != v.MapKey() {
			t.Errorf("MapKey changed across round trip: %v -> %v", v, got)
		}
		if got.Hash() != v.Hash() {
			t.Errorf("Hash changed across round trip: %v -> %v", v, got)
		}
		// Bit-exactness for floats: the codec must not canonicalize; NaN
		// payloads and -0 survive verbatim.
		if v.Kind == KindFloat {
			if math.Float64bits(got.Flt) != math.Float64bits(v.Flt) {
				t.Errorf("float bits changed: %016x -> %016x",
					math.Float64bits(v.Flt), math.Float64bits(got.Flt))
			}
		} else if got != v {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
}

// TestValueKeyCodecRoundTrip checks the ValueKey codec inverts exactly for
// every edge value's key and random keys.
func TestValueKeyCodecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	keys := make([]ValueKey, 0, 2100)
	for _, v := range edgeValues() {
		keys = append(keys, v.MapKey())
	}
	for i := 0; i < 2000; i++ {
		keys = append(keys, randomValue(r).MapKey())
	}
	for _, k := range keys {
		buf := AppendValueKey(nil, k)
		got, n, err := DecodeValueKey(buf)
		if err != nil {
			t.Fatalf("decode %v: %v", k, err)
		}
		if n != len(buf) {
			t.Fatalf("decode %v consumed %d of %d", k, n, len(buf))
		}
		if got != k {
			t.Errorf("round trip %v -> %v", k, got)
		}
	}
}

// TestValueKeyCodecInjective checks that distinct keys encode to distinct
// byte strings — the property that makes (hash, encoded key bytes) a valid
// grouping order for the external shuffle.
func TestValueKeyCodecInjective(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	seen := make(map[string]ValueKey)
	check := func(k ValueKey) {
		enc := string(AppendValueKey(nil, k))
		if prev, dup := seen[enc]; dup && prev != k {
			t.Fatalf("distinct keys share encoding: %v and %v", prev, k)
		}
		seen[enc] = k
	}
	for _, v := range edgeValues() {
		check(v.MapKey())
	}
	// Cross-kind near-collisions: I(1) vs F(1) vs S("1") etc.
	for i := int64(-300); i <= 300; i++ {
		check(I(i).MapKey())
		check(F(float64(i)).MapKey())
		check(S(I(i).String()).MapKey())
	}
	for i := 0; i < 5000; i++ {
		check(randomValue(r).MapKey())
	}
}

// TestValueKeyCodecErrors checks truncation and junk are reported.
func TestValueKeyCodecErrors(t *testing.T) {
	if _, _, err := DecodeValueKey(nil); err == nil {
		t.Error("empty buffer should error")
	}
	if _, _, err := DecodeValueKey([]byte{77}); err == nil {
		t.Error("unknown kind should error")
	}
	sbuf := AppendValueKey(nil, S("hello").MapKey())
	if _, _, err := DecodeValueKey(sbuf[:3]); err == nil {
		t.Error("truncated string key should error")
	}
	nbuf := AppendValueKey(nil, I(123456789).MapKey())
	if _, _, err := DecodeValueKey(nbuf[:5]); err == nil {
		t.Error("truncated numeric key should error")
	}
}

// TestValueKeyCodecConsecutive checks keys decode sequentially from one
// buffer, the way the engine's pair codec lays them out in spill records.
func TestValueKeyCodecConsecutive(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var keys []ValueKey
	var buf []byte
	for i := 0; i < 500; i++ {
		k := randomValue(r).MapKey()
		keys = append(keys, k)
		buf = AppendValueKey(buf, k)
	}
	pos := 0
	for i, want := range keys {
		got, n, err := DecodeValueKey(buf[pos:])
		if err != nil {
			t.Fatalf("key %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("key %d: %v != %v", i, got, want)
		}
		pos += n
	}
	if pos != len(buf) {
		t.Error("did not consume full stream")
	}
}

// TestTupleCodecGrouping checks a tuple's cells group identically after a
// round trip through the tuple codec (the whole-record analogue of the
// value test above).
func TestTupleCodecGrouping(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 300; i++ {
		cells := make([]Value, r.Intn(6))
		for j := range cells {
			cells[j] = randomValue(r)
		}
		// Sprinkle in the edge values as cells too.
		if i < len(edgeValues()) {
			cells = append(cells, edgeValues()[i])
		}
		tp := Tuple{ID: int64(i), Cells: cells}
		enc := EncodeTuple(tp)
		got, n, err := DecodeTuple(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if n != len(enc) {
			t.Fatalf("consumed %d of %d", n, len(enc))
		}
		if !bytes.Equal(enc, EncodeTuple(got)) {
			t.Fatal("re-encoding differs: codec not canonical")
		}
		for j := range tp.Cells {
			if got.Cells[j].MapKey() != tp.Cells[j].MapKey() {
				t.Fatalf("cell %d grouping changed: %v -> %v", j, tp.Cells[j], got.Cells[j])
			}
		}
	}
}

// TestViolationKeyCodec checks that the dedup shuffle's key survives the
// round trip exactly, inline cells and Extra alike, and that distinct keys
// encode apart.
func TestViolationKeyCodec(t *testing.T) {
	seen := make(map[string]ViolationKey)
	for n := 0; n <= 7; n++ {
		for _, rule := range []string{"", "phi1", "phi1|x"} {
			cells := make([]Cell, n)
			for i := range cells {
				cells[i] = NewCell(int64(n-i), i%3, I(int64(i)))
			}
			k := NewViolation(rule, cells...).MapKey()
			buf := AppendViolationKey(nil, k)
			got, used, err := DecodeViolationKey(buf)
			if err != nil || used != len(buf) || got != k {
				t.Fatalf("round trip %+v -> %+v (%d of %d bytes, %v)", k, got, used, len(buf), err)
			}
			if prev, dup := seen[string(buf)]; dup && prev != k {
				t.Fatalf("distinct keys share an encoding: %+v and %+v", prev, k)
			}
			seen[string(buf)] = k
			for cut := 0; cut < len(buf); cut++ {
				if _, _, err := DecodeViolationKey(buf[:cut]); err == nil {
					t.Fatalf("a key truncated to %d of %d bytes decoded", cut, len(buf))
				}
			}
		}
	}
}

// TestCellCodecRoundTrip checks that a cell — its position and its value,
// with no attribute name on the wire — survives the violation codec exactly,
// for every edge value and for the cells of a cell fix and of a constant fix
// (whose constant travels as a value).
func TestCellCodecRoundTrip(t *testing.T) {
	for i, v := range edgeValues() {
		c := NewCell(int64(i)-3, i%5, v)
		buf := AppendCell(nil, c)
		got, n, err := DecodeCell(buf)
		if err != nil || n != len(buf) {
			t.Fatalf("decode %v: %d of %d bytes, %v", c, n, len(buf), err)
		}
		if !bytes.Equal(AppendCell(nil, got), buf) || got.MapKey() != c.MapKey() {
			t.Errorf("round trip %v -> %v", c, got)
		}
	}
	if n := len(AppendCell(nil, NewCell(0, 0, Null()))); n != minCellBytes {
		t.Errorf("the smallest cell encodes to %d bytes, minCellBytes is %d", n, minCellBytes)
	}

	l, r := NewCell(4, 2, S("LA")), NewCell(9, 2, S("SF"))
	for _, f := range []Fix{NewCellFix(l, OpEQ, r), NewConstFix(l, OpLE, F(10))} {
		buf := AppendValue(AppendViolation(nil, NewViolation("phi", f.Cells()...)), f.Const())
		v, n, err := DecodeViolation(buf)
		if err != nil {
			t.Fatal(err)
		}
		konst, _, err := DecodeValue(buf[n:])
		if err != nil {
			t.Fatal(err)
		}
		back := NewConstFix(v.Cells[0], f.Op, konst)
		if f.RightIsCell {
			back = CellFixOf(v.Cells, f.Op)
		}
		if back.String() != f.String() || back.Left() != f.Left() || back.RightCell() != f.RightCell() || back.Const() != f.Const() {
			t.Errorf("round trip %v -> %v", f, back)
		}
	}
}
