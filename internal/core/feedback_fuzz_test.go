package core

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzReadFeedbackFile reads arbitrary bytes as a -stats-in file. The
// corpus under testdata/fuzz starts from a -stats-out file, empty and null
// pipeline maps, negative and out-of-range counts and truncated JSON. No
// input may panic, and a file ReadFeedbackFile accepts must round-trip:
// WriteFile then ReadFeedbackFile gives back the same feedback.
func FuzzReadFeedbackFile(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		in := filepath.Join(dir, "in.json")
		if err := os.WriteFile(in, data, 0o600); err != nil {
			t.Fatal(err)
		}
		fb, err := ReadFeedbackFile(in)
		if err != nil {
			return
		}
		out := filepath.Join(dir, "out.json")
		if err := fb.WriteFile(out); err != nil {
			t.Fatalf("accepted feedback does not write: %v", err)
		}
		back, err := ReadFeedbackFile(out)
		if err != nil {
			t.Fatalf("written feedback does not read back: %v", err)
		}
		if !reflect.DeepEqual(back, fb) {
			t.Fatalf("round trip changed the feedback: %+v, want %+v", back, fb)
		}
	})
}
