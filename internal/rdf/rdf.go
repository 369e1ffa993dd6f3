// Package rdf supports RDF data cleansing (Appendix C): triples are the
// data units, parsed from a simple line-oriented triple format and exposed
// to the rule engine either directly as a (subject, predicate, object)
// relation or pivoted so that each subject's properties become one tuple —
// the shape the advisor/university example rule of Figure 13 consumes.
package rdf

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"bigdansing/internal/model"
)

// Triple is one RDF statement.
type Triple struct {
	Subject, Predicate, Object string
}

// String renders the triple in the input format.
func (t Triple) String() string {
	return fmt.Sprintf("%s %s %s .", t.Subject, t.Predicate, t.Object)
}

// Parse reads whitespace-separated "subject predicate object [.]" lines.
// Blank lines and lines starting with '#' are skipped.
func Parse(r io.Reader) ([]Triple, error) {
	var out []Triple
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		text = strings.TrimSuffix(text, ".")
		fields := strings.Fields(text)
		if len(fields) < 3 {
			return nil, fmt.Errorf("rdf: line %d: want 3 terms, got %d", line, len(fields))
		}
		out = append(out, Triple{
			Subject:   fields[0],
			Predicate: fields[1],
			Object:    strings.Join(fields[2:], " "),
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("rdf: %w", err)
	}
	return out, nil
}

// ParseString parses triples from a string.
func ParseString(s string) ([]Triple, error) { return Parse(strings.NewReader(s)) }

// FromPivoted converts a pivoted relation (see Pivot) back to triples: one
// triple per non-null predicate cell, so repaired tuples translate back to
// an updated RDF graph (the final step of the Appendix C scenario).
func FromPivoted(rel *model.Relation) []Triple {
	var out []Triple
	for _, t := range rel.Tuples {
		subject := t.Cell(0).String()
		for c := 1; c < rel.Schema.Len(); c++ {
			v := t.Cell(c)
			if v.IsNull() {
				continue
			}
			out = append(out, Triple{
				Subject:   subject,
				Predicate: rel.Schema.Name(c),
				Object:    v.String(),
			})
		}
	}
	return out
}

// Pivot groups triples by subject and emits one tuple per subject carrying
// the object of each requested predicate (null when absent) — the
// Scope+Block+Iterate prefix of the RDF logical plan in Figure 13, which
// turns the triple store into the unit shape a pairwise Detect needs.
// The output schema is subject, then one attribute per predicate.
func Pivot(name string, triples []Triple, predicates ...string) *model.Relation {
	attrs := make([]model.Attribute, 0, len(predicates)+1)
	attrs = append(attrs, model.Attribute{Name: "subject", Kind: model.KindString})
	for _, p := range predicates {
		attrs = append(attrs, model.Attribute{Name: p, Kind: model.KindString})
	}
	schema := model.NewSchema(attrs...)

	wanted := map[string]int{}
	for i, p := range predicates {
		wanted[p] = i + 1
	}
	bySubject := map[string][]model.Value{}
	var order []string
	for _, t := range triples {
		col, ok := wanted[t.Predicate]
		if !ok {
			continue // Scope: irrelevant predicates are dropped
		}
		cells, seen := bySubject[t.Subject]
		if !seen {
			cells = make([]model.Value, len(predicates)+1)
			cells[0] = model.S(t.Subject)
			bySubject[t.Subject] = cells
			order = append(order, t.Subject)
		}
		cells[col] = model.S(t.Object)
	}
	sort.Strings(order)
	rel := model.NewRelation(name, schema)
	for i, s := range order {
		rel.Append(model.Tuple{ID: int64(i), Cells: bySubject[s]})
	}
	return rel
}
