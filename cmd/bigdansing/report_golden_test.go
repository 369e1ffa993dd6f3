package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestViolationsOutGolden locks down the -violations-out report byte for
// byte on a small FD+CFD+DC input: the attr column, the captured values and
// the rendered fixes — cell fixes whose cells are adjacent in the violation,
// cell fixes whose cells are not, and constant fixes.
func TestViolationsOutGolden(t *testing.T) {
	input := writeTaxCSV(t)
	vioPath := filepath.Join(t.TempDir(), "violations.csv")
	var out bytes.Buffer
	err := run([]string{
		"-input", input, "-schema", taxSchema,
		"-fd", "zipcode -> city",
		"-cfd", "zipcode -> state | 90210 => NY ; _ => _",
		"-dc", "t1.salary > t2.salary & t1.rate < t2.rate",
		"-dc", "t1.rate < t2.rate & t1.salary > t2.salary & t2.salary > t1.rate",
		"-dc", "t1.rate > 27",
		"-mode", "detect", "-workers", "2",
		"-violations-out", vioPath,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(vioPath)
	if err != nil {
		t.Fatal(err)
	}
	goldenPath := filepath.Join("testdata", "violations_out.golden")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("-violations-out report changed.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
