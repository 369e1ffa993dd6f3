package core

import (
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
