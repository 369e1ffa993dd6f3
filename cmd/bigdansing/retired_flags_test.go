package main

import (
	"bytes"
	"path/filepath"
	"testing"
)

// TestRetiredFlagsAreUndefined: the flags of the retired cost planner are
// rejected as undefined flags, not silently accepted.
func TestRetiredFlagsAreUndefined(t *testing.T) {
	input := writeTaxCSV(t)
	for _, tc := range []struct{ flag, value string }{
		{"planner", "cost"},
		{"stats-in", filepath.Join(t.TempDir(), "stats.json")},
		{"stats-out", filepath.Join(t.TempDir(), "stats.json")},
	} {
		t.Run(tc.flag, func(t *testing.T) {
			var out bytes.Buffer
			err := run([]string{
				"-input", input, "-schema", taxSchema,
				"-fd", "zipcode -> city",
				"-mode", "detect", "-" + tc.flag, tc.value,
			}, &out)
			if want := "flag provided but not defined: -" + tc.flag; err == nil || err.Error() != want {
				t.Fatalf("err = %v, want %q", err, want)
			}
		})
	}
}
