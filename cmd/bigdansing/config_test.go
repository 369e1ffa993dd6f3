package main

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"bigdansing/internal/cleanse"
	"bigdansing/internal/engine"
)

// TestConfigFlagsMatchJSON decodes one table of settings twice — from CLI
// flags and from a service create body's keys — and requires equal Configs
// and equal algorithm and engine values from them.
func TestConfigFlagsMatchJSON(t *testing.T) {
	for _, tc := range []struct {
		args []string
		json string
	}{
		{nil, `{}`},
		{[]string{"-repair", "prob", "-seed", "7", "-prob-samples", "0"}, `{"repair":"prob","seed":7,"probSamples":0}`},
		{[]string{"-repair", "eq", "-seed", "9"}, `{"repair":"eq","seed":9}`},
		{[]string{"-repair", "hypergraph", "-parallel-repair", "-max-iterations", "4", "-freeze-after", "2"},
			`{"repair":"hypergraph","parallelRepair":true,"maxIterations":4,"freezeAfter":2}`},
		{[]string{"-backend", "net", "-net-workers", "3"}, `{"backend":"net","netWorkers":3}`},
		{[]string{"-backend", "net", "-net-workers", "0"}, `{"backend":"net","netWorkers":0}`},
	} {
		fromFlags := cleanse.DefaultConfig()
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		configFlags(fs, &fromFlags)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		fromJSON := cleanse.DefaultConfig()
		dec := json.NewDecoder(strings.NewReader(tc.json))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&fromJSON); err != nil {
			t.Fatal(err)
		}
		if fromFlags != fromJSON {
			t.Fatalf("%v decodes to %+v, %s to %+v", tc.args, fromFlags, tc.json, fromJSON)
		}
		a1, err1 := fromFlags.Algorithm()
		a2, err2 := fromJSON.Algorithm()
		if err1 != nil || err2 != nil || !reflect.DeepEqual(a1, a2) {
			t.Errorf("%s: algorithms %#v (%v) vs %#v (%v)", tc.json, a1, err1, a2, err2)
		}
		e1, e2 := engine.Config{Parallelism: 4}, engine.Config{Parallelism: 4}
		_, err1 = fromFlags.Build(&e1)
		_, err2 = fromJSON.Build(&e2)
		if err1 != nil || err2 != nil || !reflect.DeepEqual(e1, e2) {
			t.Errorf("%s: built %+v (%v) vs %+v (%v)", tc.json, e1, err1, e2, err2)
		}
	}

	// The flags kept the names they had before they were generated.
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	c := cleanse.DefaultConfig()
	configFlags(fs, &c)
	for _, name := range []string{"repair", "parallel-repair", "seed", "prob-samples", "max-iterations",
		"freeze-after", "backend", "net-workers"} {
		if fs.Lookup(name) == nil {
			t.Errorf("no -%s flag", name)
		}
	}
}

// TestREADMEConfigTable: every Config field has a row in README's
// Configuration table naming its JSON key and CLI flag.
func TestREADMEConfigTable(t *testing.T) {
	f, err := os.Open("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	readme, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n## Configuration\n")
	if !ok {
		t.Fatal("README has no Configuration section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	rows := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "| `") {
			rows[line] = true
		}
	}
	ct := reflect.TypeOf(cleanse.Config{})
	for i := 0; i < ct.NumField(); i++ {
		key := ct.Field(i).Tag.Get("json")
		prefix := "| `" + key + "` | `-" + kebab(key) + "` |"
		found := false
		for row := range rows {
			found = found || strings.HasPrefix(row, prefix)
		}
		if !found {
			t.Errorf("README Configuration table has no row starting %q", prefix)
		}
	}
}
