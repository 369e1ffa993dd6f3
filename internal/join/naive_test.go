package join

import (
	"bigdansing/internal/engine"
	"bigdansing/internal/model"
)

// NaiveInequalityJoin is the correctness oracle and the baseline the SQL
// engines in the evaluation embody: full cross product plus post-selection.
func NaiveInequalityJoin(tuples []model.Tuple, conds []Cond) []engine.PairOf[model.Tuple] {
	var out []engine.PairOf[model.Tuple]
	for _, l := range tuples {
		for _, r := range tuples {
			if l.ID == r.ID {
				continue
			}
			ok := true
			for _, c := range conds {
				if !c.Eval(l, r) {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, engine.PairOf[model.Tuple]{Left: l, Right: r})
			}
		}
	}
	return out
}
