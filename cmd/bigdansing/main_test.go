package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

const taxSchema = "name,zipcode:int,city,state,salary:float,rate:float"

func writeTaxCSV(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "tax.csv")
	csv := "Annie,10011,NY,NY,24000,15\n" +
		"Laure,90210,LA,CA,25000,10\n" +
		"John,60601,CH,IL,40000,25\n" +
		"Mark,90210,SF,CA,88000,28\n" +
		"Robert,68270,CH,IL,15000,20\n" +
		"Mary,90210,LA,CA,81000,28\n"
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDetectMode(t *testing.T) {
	input := writeTaxCSV(t)
	vioPath := filepath.Join(t.TempDir(), "violations.csv")
	var out bytes.Buffer
	err := run([]string{
		"-input", input, "-schema", taxSchema,
		"-fd", "zipcode -> city",
		"-dc", "t1.salary > t2.salary & t1.rate < t2.rate",
		"-mode", "detect",
		"-violations-out", vioPath,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "loaded 6 rows") {
		t.Errorf("output: %s", text)
	}
	if !strings.Contains(text, "violations: 5") {
		t.Errorf("want 5 violations (2 fd + 3 dc): %s", text)
	}
	report, err := os.ReadFile(vioPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(report), "fd1") || !strings.Contains(string(report), "dc1") {
		t.Error("violation report should name both rules")
	}
}

func TestCleanMode(t *testing.T) {
	input := writeTaxCSV(t)
	outPath := filepath.Join(t.TempDir(), "clean.csv")
	var out bytes.Buffer
	err := run([]string{
		"-input", input, "-schema", taxSchema,
		"-fd", "zipcode -> city",
		"-mode", "clean", "-out", outPath, "-parallel-repair",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "0 remaining") {
		t.Errorf("clean output: %s", out.String())
	}
	cleaned, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	// All 90210 rows must now agree on one city.
	lines := strings.Split(strings.TrimSpace(string(cleaned)), "\n")
	cities := map[string]bool{}
	for _, l := range lines {
		if strings.Contains(l, "90210") {
			cities[strings.Split(l, ",")[2]] = true
		}
	}
	if len(cities) != 1 {
		t.Errorf("90210 cities after repair: %v", cities)
	}
}

func TestCleanModeHypergraph(t *testing.T) {
	input := writeTaxCSV(t)
	var out bytes.Buffer
	err := run([]string{
		"-input", input, "-schema", taxSchema,
		"-dc", "t1.salary > t2.salary & t1.rate < t2.rate",
		"-mode", "clean", "-repair", "hypergraph",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "0 remaining") {
		t.Errorf("hypergraph clean: %s", out.String())
	}
}

func TestCLIErrors(t *testing.T) {
	input := writeTaxCSV(t)
	var out bytes.Buffer
	if err := run([]string{"-schema", taxSchema, "-fd", "a -> b"}, &out); err == nil {
		t.Error("missing -input should fail")
	}
	if err := run([]string{"-input", input, "-schema", taxSchema}, &out); err == nil {
		t.Error("no rules should fail")
	}
	if err := run([]string{"-input", input, "-schema", taxSchema, "-fd", "bad spec"}, &out); err == nil {
		t.Error("bad FD should fail")
	}
	if err := run([]string{"-input", input, "-schema", taxSchema, "-fd", "zipcode -> city", "-mode", "bogus"}, &out); err == nil {
		t.Error("bad mode should fail")
	}
	for _, algo := range []string{"bogus", "sampling"} {
		err := run([]string{"-input", input, "-schema", taxSchema, "-fd", "zipcode -> city", "-mode", "clean", "-repair", algo}, &out)
		if err == nil || !strings.Contains(err.Error(), "want eq, hypergraph or prob") {
			t.Errorf("-repair %s: err = %v", algo, err)
		}
	}
	// A bad -schema is an error, not a panic: unknown kind, case-insensitive
	// duplicate, no attributes.
	for _, spec := range []string{"a:blob", "a,b,A", " , "} {
		err := run([]string{"-input", input, "-schema", spec, "-fd", "a -> b"}, &out)
		if err == nil || !strings.Contains(err.Error(), "-schema") {
			t.Errorf("-schema %q: err = %v", spec, err)
		}
	}
}

func TestExplainMode(t *testing.T) {
	input := writeTaxCSV(t)
	var out bytes.Buffer
	err := run([]string{
		"-input", input, "-schema", taxSchema,
		"-fd", "zipcode -> city",
		"-dc", "t1.salary > t2.salary & t1.rate < t2.rate",
		"-mode", "explain",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "UCrossProduct") {
		t.Errorf("FD plan should use UCrossProduct: %s", text)
	}
	if !strings.Contains(text, "OCJoin") {
		t.Errorf("DC plan should use OCJoin: %s", text)
	}
}

func TestDedupFlag(t *testing.T) {
	input := writeTaxCSV(t)
	var out bytes.Buffer
	err := run([]string{
		"-input", input, "-schema", taxSchema,
		"-dedup", "name",
		"-mode", "detect",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "violations:") {
		t.Errorf("dedup output: %s", out.String())
	}
}

func TestParseByteSize(t *testing.T) {
	good := map[string]int64{
		"":      0,
		"0":     0,
		"65536": 65536,
		"64K":   64 << 10,
		"64KB":  64 << 10,
		"64KiB": 64 << 10,
		"8M":    8 << 20,
		"8MB":   8 << 20,
		"8MiB":  8 << 20,
		"2G":    2 << 30,
		"2GiB":  2 << 30,
		"512B":  512,
		" 1 K ": 1 << 10,
		// Units are case-insensitive: lowercase and mixed-case spellings
		// parse identically to their canonical forms.
		"64mib": 64 << 20,
		"512k":  512 << 10,
		"8mb":   8 << 20,
		"1gb":   1 << 30,
		"2gib":  2 << 30,
		"256b":  256,
		"64Kb":  64 << 10,
		"1Gib":  1 << 30,
	}
	for in, want := range good {
		got, err := parseByteSize(in)
		if err != nil {
			t.Errorf("parseByteSize(%q): %v", in, err)
		} else if got != want {
			t.Errorf("parseByteSize(%q) = %d, want %d", in, got, want)
		}
	}
	for _, in := range []string{"abc", "-1K", "12Q", "9999999999999G"} {
		if _, err := parseByteSize(in); err == nil {
			t.Errorf("parseByteSize(%q) should fail", in)
		}
	}
}

// writeBigTaxCSV generates enough rows that a small -mem-budget forces the
// detection shuffles out of core.
func writeBigTaxCSV(t *testing.T, rows int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bigtax.csv")
	var b strings.Builder
	for i := 0; i < rows; i++ {
		zip := 10000 + i%97
		city := "C" + strconv.Itoa(zip)
		if i%31 == 0 {
			city = "X" + strconv.Itoa(i) // FD violations
		}
		fmt.Fprintf(&b, "p%d,%d,%s,S%d,%d,%d\n", i, zip, city, zip, 20000+i, 2+i%40)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestMemBudgetFlagSpills(t *testing.T) {
	input := writeBigTaxCSV(t, 4000)
	spillDir := t.TempDir()
	var out bytes.Buffer
	err := run([]string{
		"-input", input, "-schema", taxSchema,
		"-fd", "zipcode -> city",
		"-mode", "detect", "-stats",
		"-mem-budget", "32K", "-spill-dir", spillDir,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "violations:") {
		t.Fatalf("detect output missing:\n%s", text)
	}
	if !strings.Contains(text, "spill:") {
		t.Fatalf("-stats should report spill activity under a 32K budget:\n%s", text)
	}
	entries, err := os.ReadDir(spillDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("leftover spill files: %d entries", len(entries))
	}
}

func TestMemBudgetFlagRejectsJunk(t *testing.T) {
	input := writeTaxCSV(t)
	var out bytes.Buffer
	err := run([]string{
		"-input", input, "-schema", taxSchema,
		"-fd", "zipcode -> city",
		"-mem-budget", "lots",
	}, &out)
	if err == nil || !strings.Contains(err.Error(), "mem-budget") {
		t.Fatalf("junk -mem-budget should fail, got %v", err)
	}
}

func TestStatsFlag(t *testing.T) {
	input := writeTaxCSV(t)
	var out bytes.Buffer
	err := run([]string{
		"-input", input, "-schema", taxSchema,
		"-fd", "zipcode -> city",
		"-mode", "detect", "-stats",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "dataflow stages:") {
		t.Fatalf("-stats should print the stage breakdown:\n%s", text)
	}
	if !strings.Contains(text, "stage") || !strings.Contains(text, "tasks") {
		t.Fatalf("breakdown should be the per-stage table:\n%s", text)
	}
}

func TestCleanModeProb(t *testing.T) {
	input := writeTaxCSV(t)
	cleanOnce := func(seed string) string {
		t.Helper()
		outPath := filepath.Join(t.TempDir(), "clean.csv")
		var out bytes.Buffer
		err := run([]string{
			"-input", input, "-schema", taxSchema,
			"-fd", "zipcode -> city",
			"-mode", "clean", "-repair", "prob",
			"-prob-samples", "64", "-seed", seed,
			"-out", outPath, "-parallel-repair",
		}, &out)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), "0 remaining") {
			t.Fatalf("prob clean: %s", out.String())
		}
		cleaned, err := os.ReadFile(outPath)
		if err != nil {
			t.Fatal(err)
		}
		return string(cleaned)
	}
	a := cleanOnce("7")
	b := cleanOnce("7")
	if a != b {
		t.Errorf("same -seed must reproduce byte-identical output:\n%s\nvs\n%s", a, b)
	}
	// All 90210 rows must agree on one city after the repair.
	cities := map[string]bool{}
	for _, l := range strings.Split(strings.TrimSpace(a), "\n") {
		if strings.Contains(l, "90210") {
			cities[strings.Split(l, ",")[2]] = true
		}
	}
	if len(cities) != 1 {
		t.Errorf("90210 cities after prob repair: %v", cities)
	}
}
