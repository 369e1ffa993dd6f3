package model

import (
	"encoding/binary"
	"fmt"
)

// Binary encoding for cells and violations, used when the MapReduce backend
// spills detection output to disk.

// minCellBytes is the smallest encoding of a cell (three one-byte fields:
// tuple ID, column, null value). Decoders bound element counts by the bytes
// left divided by it, so a hostile count fails before it allocates.
const minCellBytes = 3

// AppendCell appends the binary encoding of c to buf.
func AppendCell(buf []byte, c Cell) []byte {
	buf = binary.AppendVarint(buf, c.TupleID)
	buf = binary.AppendVarint(buf, int64(c.Col))
	return AppendValue(buf, c.Value)
}

// DecodeCell decodes one cell, returning it and the bytes consumed.
func DecodeCell(buf []byte) (Cell, int, error) {
	id, n := binary.Varint(buf)
	if n <= 0 {
		return Cell{}, 0, fmt.Errorf("model: decode cell tuple id")
	}
	pos := n
	col, n := binary.Varint(buf[pos:])
	if n <= 0 {
		return Cell{}, 0, fmt.Errorf("model: decode cell col")
	}
	pos += n
	v, n, err := DecodeValue(buf[pos:])
	if err != nil {
		return Cell{}, 0, err
	}
	return Cell{TupleID: id, Col: int(col), Value: v}, pos + n, nil
}

// AppendViolation appends the binary encoding of v to buf.
func AppendViolation(buf []byte, v Violation) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(v.RuleID)))
	buf = append(buf, v.RuleID...)
	buf = binary.AppendUvarint(buf, uint64(len(v.Cells)))
	for _, c := range v.Cells {
		buf = AppendCell(buf, c)
	}
	return buf
}

// DecodeViolation decodes one violation, returning it and the bytes consumed.
func DecodeViolation(buf []byte) (Violation, int, error) {
	rule, pos, err := decodeString(buf)
	if err != nil {
		return Violation{}, 0, fmt.Errorf("model: decode violation rule: %w", err)
	}
	ncells, n := binary.Uvarint(buf[pos:])
	if n <= 0 {
		return Violation{}, 0, fmt.Errorf("model: decode violation arity")
	}
	pos += n
	if ncells > uint64(len(buf)-pos)/minCellBytes {
		return Violation{}, 0, fmt.Errorf("model: violation arity %d exceeds the %d bytes left", ncells, len(buf)-pos)
	}
	cells := make([]Cell, ncells)
	for i := range cells {
		c, used, err := DecodeCell(buf[pos:])
		if err != nil {
			return Violation{}, 0, fmt.Errorf("model: decode violation cell %d: %w", i, err)
		}
		cells[i] = c
		pos += used
	}
	return Violation{RuleID: rule, Cells: cells}, pos, nil
}

// AppendViolationKey appends the binary encoding of k to buf:
//
//	violationkey := rule:string n:varint (tupleid:varint col:varint){4} extra:string
//
// All four inline cells are written, used or not, so the encoding is
// injective over the whole struct — what the engine's exchanges and external
// grouping require of a shuffle key's codec (see engine.Codec).
func AppendViolationKey(buf []byte, k ViolationKey) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(k.RuleID)))
	buf = append(buf, k.RuleID...)
	buf = binary.AppendVarint(buf, int64(k.N))
	for _, c := range k.Cells {
		buf = binary.AppendVarint(buf, c.TupleID)
		buf = binary.AppendVarint(buf, int64(c.Col))
	}
	buf = binary.AppendUvarint(buf, uint64(len(k.Extra)))
	return append(buf, k.Extra...)
}

// DecodeViolationKey decodes one ViolationKey, returning it and the bytes
// consumed.
func DecodeViolationKey(buf []byte) (ViolationKey, int, error) {
	var k ViolationKey
	rule, pos, err := decodeString(buf)
	if err != nil {
		return k, 0, fmt.Errorf("model: decode violation key rule: %w", err)
	}
	k.RuleID = rule
	var ints [1 + 2*violationKeyInline]int64
	for i := range ints {
		v, n := binary.Varint(buf[pos:])
		if n <= 0 {
			return ViolationKey{}, 0, fmt.Errorf("model: decode violation key field %d", i)
		}
		ints[i] = v
		pos += n
	}
	k.N = int(ints[0])
	for i := range k.Cells {
		k.Cells[i] = CellKey{TupleID: ints[1+2*i], Col: int(ints[2+2*i])}
	}
	extra, n, err := decodeString(buf[pos:])
	if err != nil {
		return ViolationKey{}, 0, fmt.Errorf("model: decode violation key extra: %w", err)
	}
	k.Extra = extra
	return k, pos + n, nil
}
