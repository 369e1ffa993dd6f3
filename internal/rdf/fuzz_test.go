package rdf

import (
	"reflect"
	"testing"
)

// FuzzRDFParse feeds arbitrary text through Parse. It must not panic, and
// every triple it returns must parse back from its own String() rendering
// as exactly that triple.
func FuzzRDFParse(f *testing.F) {
	f.Add(exampleTriples)
	f.Fuzz(func(t *testing.T, text string) {
		triples, err := ParseString(text)
		if err != nil {
			return
		}
		for _, tr := range triples {
			back, err := ParseString(tr.String())
			if err != nil {
				t.Fatalf("%q renders as %q, which does not parse: %v", tr, tr.String(), err)
			}
			if !reflect.DeepEqual(back, []Triple{tr}) {
				t.Fatalf("%q renders as %q, which parses to %q", tr, tr.String(), back)
			}
		}
	})
}
