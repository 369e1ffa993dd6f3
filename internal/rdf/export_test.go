package rdf

import (
	"bigdansing/internal/model"
)

// ToRelation exposes triples as a relation with one tuple per triple —
// triples are the data units, their three terms the elements.
func ToRelation(name string, triples []Triple) *model.Relation {
	rel := model.NewRelation(name, model.MustParseSchema("subject,predicate,object"))
	for i, t := range triples {
		rel.Append(model.NewTuple(int64(i),
			model.S(t.Subject), model.S(t.Predicate), model.S(t.Object)))
	}
	return rel
}
