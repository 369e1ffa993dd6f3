package repair

import (
	"encoding/binary"
	"fmt"
	"slices"

	"bigdansing/internal/engine"
	"bigdansing/internal/model"
)

// DistributedEquivalenceClass is the natively distributed equivalence-class
// algorithm of Section 5.2, modeled as a distributed word count with two
// map-reduce sequences, each one engine.ReduceByKey:
//
//	job 1  map:    possible fix -> ⟨⟨ccID,value⟩, 1⟩ (each element's value
//	               counted once per class, as the paper requires)
//	       reduce: count occurrences  -> ⟨⟨ccID,value⟩, count⟩
//	job 2  map:    ⟨⟨ccID,value⟩, count⟩ -> ⟨ccID, ⟨value,count⟩⟩
//	       reduce: pick the most frequent value per class and assign it to
//	               every element of the class
//
// ReduceByKey's map-side combine is the Combine task of Appendix G.2. The
// jobs run on whatever backend Ctx has: in memory, over TCP, or — with a
// mapred.Engine as its exchange — through run files on disk.
//
// The class ("ccID") is the equivalence class the fixes induce — built
// exactly as EquivalenceClass builds it, and coinciding with the connected
// component for the single-FD workloads the paper describes.
type DistributedEquivalenceClass struct {
	Ctx *engine.Context
}

// classValue is job 1's key: one candidate value of one equivalence class.
type classValue struct {
	Class int64
	Value model.ValueKey
}

// vote is a candidate value with its weighted occurrence count.
type vote struct {
	Count int64
	Value model.Value
}

// The codecs that let both jobs' shuffles leave the process (job 2's int64
// key is an engine built-in).
func init() {
	engine.RegisterCodec(engine.Codec[classValue]{
		Append: func(buf []byte, k classValue) []byte {
			return model.AppendValueKey(binary.AppendVarint(buf, k.Class), k.Value)
		},
		Decode: func(buf []byte) (classValue, int, error) {
			cc, n := binary.Varint(buf)
			if n <= 0 {
				return classValue{}, 0, fmt.Errorf("repair: decode class id")
			}
			v, m, err := model.DecodeValueKey(buf[n:])
			return classValue{Class: cc, Value: v}, n + m, err
		},
	})
	engine.RegisterCodec(engine.Codec[vote]{
		Append: func(buf []byte, v vote) []byte {
			return model.AppendValue(binary.AppendVarint(buf, v.Count), v.Value)
		},
		Decode: func(buf []byte) (vote, int, error) {
			c, n := binary.Varint(buf)
			if n <= 0 {
				return vote{}, 0, fmt.Errorf("repair: decode vote count")
			}
			v, m, err := model.DecodeValue(buf[n:])
			return vote{Count: c, Value: v}, n + m, err
		},
	})
}

// Name identifies the algorithm.
func (d *DistributedEquivalenceClass) Name() string { return "equivalence-class-mr" }

// Repair implements Algorithm using the two map-reduce sequences.
func (d *DistributedEquivalenceClass) Repair(component []model.FixSet) ([]Assignment, error) {
	if d.Ctx == nil {
		return nil, fmt.Errorf("repair: distributed equivalence class needs an engine context")
	}

	// Preprocessing (the "connected component ID" the paper's first map
	// assumes available): the equivalence classes, each named by its root.
	c := buildClasses(component)

	// ---- Job 1 input: one vote per element (value counted once per
	// element, satisfying "if an element exists in multiple fixes, we only
	// count its value once"). Constants enter with a boosted count so they
	// win the vote (hard requirements): as in EquivalenceClass.Repair, each
	// distinct constant of a cell weighs its count plus the class size.
	// Lone cells without constants are never repaired, so they cast no
	// votes.
	var votes []engine.Pair[classValue, vote]
	var cellConsts []vote
	for r := range c.first {
		class := c.class(r)
		if !c.needsRepair(class) {
			continue
		}
		for _, id := range class {
			v := c.first[id].cell(component).Value
			votes = append(votes, engine.KV(classValue{int64(r), v.MapKey()}, vote{1, v}))
			cellConsts = cellConsts[:0]
			for _, j := range c.consts(id) {
				cv := c.constFixes[j].fix(component).Const()
				k := slices.IndexFunc(cellConsts, func(x vote) bool { return x.Value.Equal(cv) })
				if k < 0 {
					k = len(cellConsts)
					cellConsts = append(cellConsts, vote{0, cv})
				}
				cellConsts[k].Count++
			}
			for _, cv := range cellConsts {
				votes = append(votes, engine.KV(classValue{int64(r), cv.Value.MapKey()}, vote{cv.Count + int64(len(class)), cv.Value}))
			}
		}
	}

	// ---- Job 1: count ⟨ccID,value⟩ occurrences.
	counted := engine.ReduceByKey(engine.Parallelize(d.Ctx, votes, 0), func(a, b vote) vote {
		a.Count += b.Count
		return a
	})

	// ---- Job 2: per ccID pick the most frequent value (ties: the smaller
	// rendering, so the choice does not depend on arrival order).
	byClass := engine.Map(counted, func(p engine.Pair[classValue, vote]) engine.Pair[int64, vote] {
		return engine.KV(p.Key.Class, p.Value)
	})
	winners, err := engine.ReduceByKey(byClass, func(a, b vote) vote {
		if b.Count > a.Count || (b.Count == a.Count && b.Value.String() < a.Value.String()) {
			return b
		}
		return a
	}).Collect()
	if err != nil {
		return nil, fmt.Errorf("repair: distributed equivalence class: %w", err)
	}
	target := make(map[int64]model.Value, len(winners))
	for _, w := range winners {
		target[w.Key] = w.Value.Value
	}

	// Emit assignments for every element whose value differs from its
	// class target.
	var out []Assignment
	for r := range c.first {
		t, ok := target[int64(r)]
		if !ok {
			continue
		}
		for _, id := range c.class(r) {
			if cell := c.first[id].cell(component); !cell.Value.Equal(t) {
				out = append(out, Assignment{TupleID: cell.TupleID, Col: cell.Col, Value: t})
			}
		}
	}
	sortAssignments(out)
	return out, nil
}
