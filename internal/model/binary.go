package model

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary encoding for values and tuples: the form a record takes when it
// crosses the disk or TCP exchange or spills to disk under a memory budget.
//
// Layout:
//
//	value  := kind:uint8 payload
//	payload(null)   :=
//	payload(string) := len:uvarint bytes
//	payload(int)    := zigzag varint
//	payload(float)  := 8 bytes little-endian IEEE 754
//	tuple  := id:uvarint ncells:uvarint value*

// AppendValue appends the binary encoding of v to buf.
func AppendValue(buf []byte, v Value) []byte {
	buf = append(buf, byte(v.Kind))
	switch v.Kind {
	case KindNull:
	case KindString:
		buf = binary.AppendUvarint(buf, uint64(len(v.Str)))
		buf = append(buf, v.Str...)
	case KindInt:
		buf = binary.AppendVarint(buf, v.Int)
	case KindFloat:
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.Flt))
		buf = append(buf, b[:]...)
	}
	return buf
}

// DecodeValue decodes one value from buf, returning it and the number of
// bytes consumed.
func DecodeValue(buf []byte) (Value, int, error) {
	if len(buf) == 0 {
		return Value{}, 0, fmt.Errorf("model: decode value: empty buffer")
	}
	kind := Kind(buf[0])
	pos := 1
	switch kind {
	case KindNull:
		return Null(), pos, nil
	case KindString:
		s, n, err := decodeString(buf[pos:])
		if err != nil {
			return Value{}, 0, err
		}
		return S(s), pos + n, nil
	case KindInt:
		i, sz := binary.Varint(buf[pos:])
		if sz <= 0 {
			return Value{}, 0, fmt.Errorf("model: decode int")
		}
		return I(i), pos + sz, nil
	case KindFloat:
		if pos+8 > len(buf) {
			return Value{}, 0, fmt.Errorf("model: float payload truncated")
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(buf[pos:]))
		return F(f), pos + 8, nil
	default:
		return Value{}, 0, fmt.Errorf("model: unknown value kind %d", kind)
	}
}

// decodeString decodes a uvarint length-prefixed string. The length is
// compared unsigned against the bytes left, so no hostile prefix can wrap
// past the bounds check.
func decodeString(buf []byte) (string, int, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return "", 0, fmt.Errorf("model: decode string length")
	}
	if n > uint64(len(buf)-sz) {
		return "", 0, fmt.Errorf("model: string of %d bytes truncated to %d", n, len(buf)-sz)
	}
	end := sz + int(n)
	return string(buf[sz:end]), end, nil
}

// AppendValueKey appends the binary encoding of k to buf:
//
//	valuekey := kind:uint8 payload
//	payload(null)   :=
//	payload(string) := len:uvarint bytes
//	payload(int)    := Num 8 bytes little-endian
//	payload(float)  := Num 8 bytes little-endian
//
// The encoding is injective: distinct keys (and hence distinct grouping
// classes) always encode to distinct byte strings, which the engine's
// external shuffle relies on to keep groups intact across a spill.
func AppendValueKey(buf []byte, k ValueKey) []byte {
	buf = append(buf, byte(k.Kind))
	switch k.Kind {
	case KindString:
		buf = binary.AppendUvarint(buf, uint64(len(k.Str)))
		buf = append(buf, k.Str...)
	case KindInt, KindFloat:
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], k.Num)
		buf = append(buf, b[:]...)
	}
	return buf
}

// DecodeValueKey decodes one ValueKey from buf, returning it and the number
// of bytes consumed.
func DecodeValueKey(buf []byte) (ValueKey, int, error) {
	if len(buf) == 0 {
		return ValueKey{}, 0, fmt.Errorf("model: decode value key: empty buffer")
	}
	kind := Kind(buf[0])
	pos := 1
	switch kind {
	case KindNull:
		return ValueKey{}, pos, nil
	case KindString:
		s, n, err := decodeString(buf[pos:])
		if err != nil {
			return ValueKey{}, 0, err
		}
		return ValueKey{Kind: KindString, Str: s}, pos + n, nil
	case KindInt, KindFloat:
		if pos+8 > len(buf) {
			return ValueKey{}, 0, fmt.Errorf("model: key payload truncated")
		}
		num := binary.LittleEndian.Uint64(buf[pos:])
		return ValueKey{Kind: kind, Num: num}, pos + 8, nil
	default:
		return ValueKey{}, 0, fmt.Errorf("model: unknown value key kind %d", kind)
	}
}

// AppendTuple appends the binary encoding of t to buf.
func AppendTuple(buf []byte, t Tuple) []byte {
	buf = binary.AppendUvarint(buf, uint64(t.ID))
	buf = binary.AppendUvarint(buf, uint64(len(t.Cells)))
	for _, c := range t.Cells {
		buf = AppendValue(buf, c)
	}
	return buf
}

// DecodeTuple decodes one tuple from buf, returning it and the number of
// bytes consumed.
func DecodeTuple(buf []byte) (Tuple, int, error) {
	id, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return Tuple{}, 0, fmt.Errorf("model: decode tuple id")
	}
	pos := sz
	n, sz := binary.Uvarint(buf[pos:])
	if sz <= 0 {
		return Tuple{}, 0, fmt.Errorf("model: decode tuple arity")
	}
	pos += sz
	// Every value encodes to at least one byte, so the bytes left bound the
	// arity before anything is allocated.
	if n > uint64(len(buf)-pos) {
		return Tuple{}, 0, fmt.Errorf("model: tuple arity %d exceeds the %d bytes left", n, len(buf)-pos)
	}
	cells := make([]Value, n)
	for i := range cells {
		v, used, err := DecodeValue(buf[pos:])
		if err != nil {
			return Tuple{}, 0, fmt.Errorf("model: decode cell %d: %w", i, err)
		}
		cells[i] = v
		pos += used
	}
	return Tuple{ID: int64(id), Cells: cells}, pos, nil
}
