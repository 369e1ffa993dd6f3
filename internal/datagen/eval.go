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

// DedupQuality measures a deduplication run. Because injected duplicates
// form clusters (an original replicated several times), correctness is
// judged cluster-wise: a detected pair is correct when both tuples belong
// to the same duplicate cluster, and a truth pair counts as recalled when
// the detected pairs connect its two tuples (directly or transitively).
func DedupQuality(tr *Truth, detected [][2]int64) Quality {
	truth := clusters(tr.DupPairs)
	correct := 0
	for _, p := range detected {
		if sameCluster(truth, p) {
			correct++
		}
	}
	found := clusters(detected)
	recalled := 0
	for _, p := range tr.DupPairs {
		if sameCluster(found, p) {
			recalled++
		}
	}
	q := Quality{Updated: len(detected), Correct: correct}
	if len(detected) > 0 {
		q.Precision = float64(correct) / float64(len(detected))
	}
	if len(tr.DupPairs) > 0 {
		q.Recall = float64(recalled) / float64(len(tr.DupPairs))
	}
	return q
}

// clusters labels every tuple the pairs name with one tuple of its
// cluster: the tuples the pairs connect, directly or transitively.
func clusters(pairs [][2]int64) map[int64]int64 {
	adj := map[int64][]int64{}
	for _, p := range pairs {
		adj[p[0]] = append(adj[p[0]], p[1])
		adj[p[1]] = append(adj[p[1]], p[0])
	}
	label := make(map[int64]int64, len(adj))
	for start := range adj {
		if _, ok := label[start]; ok {
			continue
		}
		label[start] = start
		for stack := []int64{start}; len(stack) > 0; {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, y := range adj[x] {
				if _, ok := label[y]; !ok {
					label[y] = start
					stack = append(stack, y)
				}
			}
		}
	}
	return label
}

// sameCluster reports whether the pairs labeled both tuples of p, into one
// cluster.
func sameCluster(label map[int64]int64, p [2]int64) bool {
	a, okA := label[p[0]]
	b, okB := label[p[1]]
	return okA && okB && a == b
}
