package core

import (
	"encoding/binary"

	"bigdansing/internal/engine"
	"bigdansing/internal/model"
)

// Spill codecs: registering the data model's binary encodings with the
// engine makes every wide operator over tuples out-of-core capable. With a
// memory budget configured (engine.Config.MemoryBudgetBytes), the blocking
// GroupBy of the FD path, the CoGroupBy behind joins, and OCJoin's range
// partitioning all spill to disk instead of growing without bound; without
// a budget the registrations are inert and the in-memory fast paths run
// unchanged.
//
// This lives in core (not model) so the model package stays independent of
// the engine, mirroring how the physical layer is the one place logical
// rules meet execution.
func init() {
	engine.RegisterCodec(engine.Codec[model.ValueKey]{
		Append: model.AppendValueKey,
		Decode: model.DecodeValueKey,
	})
	engine.RegisterCodec(engine.Codec[model.Value]{
		Append: model.AppendValue,
		Decode: model.DecodeValue,
	})
	engine.RegisterCodec(engine.Codec[model.Tuple]{
		Append: model.AppendTuple,
		Decode: model.DecodeTuple,
	})
	engine.RegisterCodec(engine.Codec[model.Violation]{
		Append: model.AppendViolation,
		Decode: model.DecodeViolation,
	})
	// The dedup shuffle's key: without it, Distinct could not cross an
	// exchange or spill under a budget.
	engine.RegisterCodec(engine.Codec[model.ViolationKey]{
		Append: model.AppendViolationKey,
		Decode: model.DecodeViolationKey,
	})
}

// projection is the wire appender of a rule's declared reads (Rule.Reads):
// a tuple moves as its ID, a width of the highest declared column + 1 (never
// wider than the tuple), its declared cells and a one-byte null in every
// other column. That is model.AppendTuple's layout, so the registered codec
// decodes it as the tuple with its undeclared cells nulled, every cell at
// its base-table column. Nil reads return nil: tuples move whole.
func projection(reads []int) func([]byte, model.Tuple) []byte {
	if reads == nil {
		return nil
	}
	width := 0
	for _, c := range reads {
		width = max(width, c+1)
	}
	keep := make([]bool, width)
	for _, c := range reads {
		keep[c] = true
	}
	return func(buf []byte, t model.Tuple) []byte {
		w := min(width, len(t.Cells))
		buf = binary.AppendUvarint(buf, uint64(t.ID))
		buf = binary.AppendUvarint(buf, uint64(w))
		for c, v := range t.Cells[:w] {
			if !keep[c] {
				v = model.Null()
			}
			buf = model.AppendValue(buf, v)
		}
		return buf
	}
}
