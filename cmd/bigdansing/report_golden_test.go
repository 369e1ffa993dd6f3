package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"bigdansing/internal/datagen"
	"bigdansing/internal/model"
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

// TestDetectOutputIndependentOfWorkers runs -mode detect -v with
// -violations-out on TPC-H φ3 at one and at four workers: the listing and
// the report must be byte-identical. Four workers hash-partition the blocks
// by a per-process seed, so only a canonical order makes them agree.
func TestDetectOutputIndependentOfWorkers(t *testing.T) {
	dir := t.TempDir()
	input := filepath.Join(dir, "tpch.csv")
	if err := model.WriteCSVFile(input, datagen.TPCH(5000, 0.10, 1).Dirty, false); err != nil {
		t.Fatal(err)
	}
	detect := func(workers string) (listing, report []byte) {
		t.Helper()
		vioPath := filepath.Join(dir, "violations-"+workers+".csv")
		var out bytes.Buffer
		err := run([]string{
			"-input", input, "-schema", datagen.TPCHSchema().String(),
			"-fd", "o_custkey -> c_address",
			"-mode", "detect", "-v", "-workers", workers,
			"-violations-out", vioPath,
		}, &out)
		if err != nil {
			t.Fatal(err)
		}
		report, err = os.ReadFile(vioPath)
		if err != nil {
			t.Fatal(err)
		}
		// The last line names the report's path, which differs.
		listing = out.Bytes()[:bytes.LastIndex(out.Bytes(), []byte("violation report written"))]
		return listing, report
	}
	l1, r1 := detect("1")
	l4, r4 := detect("4")
	if !bytes.Contains(l1, []byte("violation[fd1]")) {
		t.Fatalf("listing names no violation:\n%s", l1)
	}
	if !bytes.Equal(l1, l4) {
		t.Errorf("-v listing differs between -workers 1 and 4")
	}
	if !bytes.Equal(r1, r4) {
		t.Errorf("-violations-out report differs between -workers 1 and 4")
	}
}
