package datagen

import (
	"math"

	"bigdansing/internal/model"
)

// Quality holds the repair-quality measures of Table 4.
type Quality struct {
	// Precision is the ratio of correctly updated cells (exact match with
	// the ground truth) to all updated cells.
	Precision float64
	// Recall is the ratio of correctly restored cells to all injected
	// errors.
	Recall float64
	// Updated and Correct are the raw counts behind Precision.
	Updated, Correct int
	// AvgDistance and TotalDistance measure numeric repairs against the
	// ground truth (the ||R,G||/e and ||R,G|| columns for the hypergraph
	// algorithm), over the injected-error cells.
	AvgDistance, TotalDistance float64
}

// Evaluate compares a repaired instance against the ground truth, following
// Section 6.6: precision over the cells the repair changed, recall over the
// injected errors, and euclidean-style distance for numeric attributes.
func Evaluate(tr *Truth, repaired *model.Relation) Quality {
	q := Quality{}
	cleanIdx := tr.Clean.ByID()
	dirtyIdx := tr.Dirty.ByID()
	repIdx := repaired.ByID()

	cellOf := func(rel *model.Relation, idx map[int64]int, id int64, col int) (model.Value, bool) {
		i, ok := idx[id]
		if !ok {
			return model.Value{}, false
		}
		return rel.Tuples[i].Cell(col), true
	}

	// Precision: walk every cell, find updates (repaired != dirty).
	for _, t := range repaired.Tuples {
		di, ok := dirtyIdx[t.ID]
		if !ok {
			continue
		}
		for c := range t.Cells {
			dv := tr.Dirty.Tuples[di].Cell(c)
			rv := t.Cell(c)
			if rv.Equal(dv) {
				continue
			}
			q.Updated++
			if cv, ok := cellOf(tr.Clean, cleanIdx, t.ID, c); ok && rv.Equal(cv) {
				q.Correct++
			}
		}
	}
	if q.Updated > 0 {
		q.Precision = float64(q.Correct) / float64(q.Updated)
	}

	// Recall and distance over the injected errors.
	restored := 0
	for key, cleanVal := range tr.Errors {
		rv, ok := cellOf(repaired, repIdx, key.TupleID, key.Col)
		if !ok {
			continue
		}
		if rv.Equal(cleanVal) {
			restored++
		}
		if cleanVal.Kind == model.KindFloat || cleanVal.Kind == model.KindInt {
			d := rv.Float() - cleanVal.Float()
			q.TotalDistance += math.Abs(d)
		}
	}
	if len(tr.Errors) > 0 {
		q.Recall = float64(restored) / float64(len(tr.Errors))
		q.AvgDistance = q.TotalDistance / float64(len(tr.Errors))
	}
	return q
}
