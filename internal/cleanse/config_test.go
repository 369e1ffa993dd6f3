package cleanse

import (
	"reflect"
	"strings"
	"testing"

	"bigdansing/internal/engine"
	"bigdansing/internal/probrepair"
	"bigdansing/internal/repair"
)

// TestConfigBuild pins the one mapping from setting names to Go values:
// the algorithm (seeded, sized) and the engine backend fields.
func TestConfigBuild(t *testing.T) {
	for _, tc := range []struct {
		name    string
		set     func(*Config)
		algo    repair.Algorithm
		backend engine.BackendKind
	}{
		{"default", func(*Config) {}, &repair.EquivalenceClass{}, engine.BackendLocal},
		{"hypergraph", func(c *Config) { c.Repair = "hypergraph" }, &repair.Hypergraph{}, engine.BackendLocal},
		{"prob", func(c *Config) { c.Repair, c.Seed = "prob", 7 },
			&probrepair.Prob{Samples: probrepair.DefaultSamples, Seed: 7}, engine.BackendLocal},
		{"prob-eq", func(c *Config) { c.Repair, c.ProbSamples = "prob", 0 }, &probrepair.Prob{Seed: 1}, engine.BackendLocal},
		{"net", func(c *Config) { c.Backend, c.NetWorkers = "net", 3 }, &repair.EquivalenceClass{}, engine.BackendNet},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := DefaultConfig()
			tc.set(&c)
			algo, err := c.Algorithm()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(algo, tc.algo) {
				t.Errorf("algorithm = %#v, want %#v", algo, tc.algo)
			}
			eng := engine.Config{Parallelism: 4}
			opts, err := c.Build(&eng)
			if err != nil {
				t.Fatal(err)
			}
			if eng.Backend != tc.backend || eng.NetWorkers != c.NetWorkers || eng.Parallelism != 4 {
				t.Errorf("engine config = %+v", eng)
			}
			cl := &Cleaner{}
			for _, o := range opts {
				o(cl)
			}
			if !reflect.DeepEqual(cl.algo, tc.algo) ||
				cl.maxIterations != c.MaxIterations || cl.freezeAfter != c.FreezeAfter || cl.parallel != c.ParallelRepair {
				t.Errorf("options wired %+v from %+v", cl, c)
			}
		})
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig does not validate: %v", err)
	}
	for _, tc := range []struct {
		set  func(*Config)
		want string
	}{
		{func(c *Config) { c.Repair = "magic" }, "repair algorithm"},
		{func(c *Config) { c.Repair = "" }, "repair algorithm"},
		{func(c *Config) { c.Repair = "sampling" }, "want eq, hypergraph or prob"},
		{func(c *Config) { c.Backend = "yarn" }, "backend"},
		{func(c *Config) { c.ProbSamples = -1 }, "probSamples"},
		{func(c *Config) { c.MaxIterations = -1 }, "maxIterations"},
		{func(c *Config) { c.FreezeAfter = -1 }, "freezeAfter"},
	} {
		c := DefaultConfig()
		tc.set(&c)
		err := c.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: err = %v, want one naming %s", c, err, tc.want)
		}
		if _, err := c.Build(&engine.Config{}); err == nil {
			t.Errorf("%+v: Build accepted an invalid config", c)
		}
	}
}
