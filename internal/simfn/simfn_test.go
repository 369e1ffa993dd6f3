package simfn

import (
	"testing"
	"testing/quick"
)

func TestLevenshteinKnownValues(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"gumbo", "gambol", 2},
		{"same", "same", 0},
		{"a", "b", 1},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLevenshteinMetricAxioms(t *testing.T) {
	clamp := func(s string) string {
		if len(s) > 12 {
			return s[:12]
		}
		return s
	}
	// Symmetry and identity.
	f := func(a, b string) bool {
		a, b = clamp(a), clamp(b)
		d := Levenshtein(a, b)
		if d != Levenshtein(b, a) {
			return false
		}
		if (d == 0) != (a == b) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Triangle inequality.
	g := func(a, b, c string) bool {
		a, b, c = clamp(a), clamp(b), clamp(c)
		return Levenshtein(a, c) <= Levenshtein(a, b)+Levenshtein(b, c)
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinSimilarityRange(t *testing.T) {
	if LevenshteinSimilarity("", "") != 1 {
		t.Error("empty strings identical")
	}
	if LevenshteinSimilarity("abc", "abc") != 1 {
		t.Error("equal strings similarity 1")
	}
	if s := LevenshteinSimilarity("abc", "xyz"); s != 0 {
		t.Errorf("disjoint same-length strings = %v, want 0", s)
	}
	f := func(a, b string) bool {
		if len(a) > 10 {
			a = a[:10]
		}
		if len(b) > 10 {
			b = b[:10]
		}
		s := LevenshteinSimilarity(a, b)
		return s >= 0 && s <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSoundexKnownCodes(t *testing.T) {
	cases := map[string]string{
		"Robert":   "R163",
		"Rupert":   "R163",
		"Ashcraft": "A261",
		"Ashcroft": "A261",
		"Tymczak":  "T522",
		"Pfister":  "P236",
		"Honeyman": "H555",
		"":         "0000",
		"123":      "0000",
	}
	for in, want := range cases {
		if got := Soundex(in); got != want {
			t.Errorf("Soundex(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSoundexBlocksSimilarNames(t *testing.T) {
	// The dedup blocking strategy relies on typo'd names often sharing a
	// Soundex code.
	pairs := [][2]string{{"Smith", "Smyth"}, {"Johnson", "Jonson"}, {"Williams", "Wiliams"}}
	for _, p := range pairs {
		if Soundex(p[0]) != Soundex(p[1]) {
			t.Errorf("Soundex(%q) != Soundex(%q)", p[0], p[1])
		}
	}
}
