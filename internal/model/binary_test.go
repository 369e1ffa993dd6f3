package model

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestValueBinaryRoundTrip(t *testing.T) {
	vals := []Value{
		Null(), S(""), S("hello"), S("with,comma\nand newline"),
		I(0), I(-1), I(1 << 40), I(-(1 << 40)),
		F(0), F(3.14159), F(-1e300),
	}
	for _, v := range vals {
		buf := AppendValue(nil, v)
		got, n, err := DecodeValue(buf)
		if err != nil {
			t.Fatalf("decode %v: %v", v, err)
		}
		if n != len(buf) {
			t.Errorf("decode %v consumed %d of %d", v, n, len(buf))
		}
		if got != v {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
}

// EncodeTuple encodes a tuple into a fresh buffer.
func EncodeTuple(t Tuple) []byte {
	return AppendTuple(make([]byte, 0, 16+8*len(t.Cells)), t)
}

func TestTupleBinaryRoundTrip(t *testing.T) {
	tp := NewTuple(12345, S("Annie"), I(10011), S("NY"), F(0.15))
	buf := EncodeTuple(tp)
	got, n, err := DecodeTuple(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Errorf("consumed %d of %d", n, len(buf))
	}
	if got.ID != tp.ID || len(got.Cells) != len(tp.Cells) {
		t.Fatalf("shape mismatch: %v", got)
	}
	for i := range tp.Cells {
		if got.Cells[i] != tp.Cells[i] {
			t.Errorf("cell %d: %v vs %v", i, got.Cells[i], tp.Cells[i])
		}
	}
}

func TestTupleBinaryRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	f := func(id uint32, nRaw uint8) bool {
		n := int(nRaw % 10)
		cells := make([]Value, n)
		for i := range cells {
			cells[i] = randomValue(r)
		}
		tp := Tuple{ID: int64(id), Cells: cells}
		got, used, err := DecodeTuple(EncodeTuple(tp))
		if err != nil || used != len(EncodeTuple(tp)) {
			return false
		}
		if got.ID != tp.ID || len(got.Cells) != n {
			return false
		}
		for i := range cells {
			if got.Cells[i] != cells[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDecodeValueErrors(t *testing.T) {
	if _, _, err := DecodeValue(nil); err == nil {
		t.Error("empty buffer should error")
	}
	if _, _, err := DecodeValue([]byte{99}); err == nil {
		t.Error("unknown kind should error")
	}
	// Truncated string payload.
	buf := AppendValue(nil, S("hello"))
	if _, _, err := DecodeValue(buf[:3]); err == nil {
		t.Error("truncated string should error")
	}
	// Truncated float payload.
	fbuf := AppendValue(nil, F(1.5))
	if _, _, err := DecodeValue(fbuf[:4]); err == nil {
		t.Error("truncated float should error")
	}
}

func TestConsecutiveTupleDecoding(t *testing.T) {
	var buf []byte
	tuples := []Tuple{
		NewTuple(1, S("a")),
		NewTuple(2, I(42), F(1.5)),
		NewTuple(3),
	}
	for _, tp := range tuples {
		buf = AppendTuple(buf, tp)
	}
	pos := 0
	for i := 0; pos < len(buf); i++ {
		tp, n, err := DecodeTuple(buf[pos:])
		if err != nil {
			t.Fatal(err)
		}
		if tp.ID != tuples[i].ID {
			t.Errorf("tuple %d id = %d", i, tp.ID)
		}
		pos += n
	}
	if pos != len(buf) {
		t.Error("did not consume full stream")
	}
}
