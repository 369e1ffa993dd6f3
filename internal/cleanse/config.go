package cleanse

import (
	"fmt"

	"bigdansing/internal/engine"
	"bigdansing/internal/probrepair"
	"bigdansing/internal/repair"
)

// Config holds the settings of a cleanse run that a user chooses: the
// repair algorithm and its knobs, the bounds of the detect-repair loop and
// the execution backend. The command-line tool and the
// HTTP service decode their text into it — one flag per field named after
// the kebab-cased JSON tag, one create-request key per JSON tag — so each
// setting has one name, one default and one meaning on both. Start from
// DefaultConfig; the zero value does not validate.
//
// Deployment settings (parallelism, memory budget, spill directory, batch
// size, worker addresses) are not here: they are chosen by whoever runs the
// process, not by a client of the service, and are set on engine.Config.
type Config struct {
	Repair         string `json:"repair" help:"repair algorithm: eq (equivalence class) | hypergraph | prob (factor-graph inference)"`
	ParallelRepair bool   `json:"parallelRepair" help:"use the parallel black-box repair of Section 5.1"`
	Seed           int64  `json:"seed" help:"seed of the prob repair's inference; 0 means 1"`
	ProbSamples    int    `json:"probSamples" help:"recorded Gibbs sweeps per component for repair=prob; 0 returns the equivalence-class answer"`
	MaxIterations  int    `json:"maxIterations" help:"bound on the detect-repair loop; 0 means 10"`
	FreezeAfter    int    `json:"freezeAfter" help:"freeze a cell after this many updates (the termination device); 0 means 3"`
	Backend        string `json:"backend" help:"execution backend: local (in-process) | net (worker processes over TCP)"`
	NetWorkers     int    `json:"netWorkers" help:"worker processes for backend=net; 0 or less means 2"`
}

// DefaultConfig returns the settings an absent flag or request key takes.
func DefaultConfig() Config {
	return Config{
		Repair:        "eq",
		Seed:          1,
		ProbSamples:   probrepair.DefaultSamples,
		MaxIterations: 10,
		FreezeAfter:   3,
		Backend:       "local",
		NetWorkers:    2,
	}
}

// backends maps Config.Backend names to engine backends.
var backends = map[string]engine.BackendKind{"local": engine.BackendLocal, "net": engine.BackendNet}

// Validate reports the first setting that names nothing or is out of range.
func (c Config) Validate() error {
	if _, err := c.Algorithm(); err != nil {
		return err
	}
	if _, ok := backends[c.Backend]; !ok {
		return fmt.Errorf("unknown backend %q (want local or net)", c.Backend)
	}
	switch {
	case c.ProbSamples < 0:
		return fmt.Errorf("probSamples: %d is negative", c.ProbSamples)
	case c.MaxIterations < 0:
		return fmt.Errorf("maxIterations: %d is negative", c.MaxIterations)
	case c.FreezeAfter < 0:
		return fmt.Errorf("freezeAfter: %d is negative", c.FreezeAfter)
	}
	return nil
}

// Algorithm returns the repair algorithm c.Repair names, seeded from c.Seed
// and, for prob, sized by c.ProbSamples.
func (c Config) Algorithm() (repair.Algorithm, error) {
	switch c.Repair {
	case "eq":
		return &repair.EquivalenceClass{}, nil
	case "hypergraph":
		return &repair.Hypergraph{}, nil
	case "prob":
		return &probrepair.Prob{Samples: c.ProbSamples, Seed: c.Seed}, nil
	}
	return nil, fmt.Errorf("unknown repair algorithm %q (want eq, hypergraph or prob)", c.Repair)
}

// Build validates c and turns it into what a run needs: the Cleaner
// options, and the backend fields, which it writes into eng.
func (c Config) Build(eng *engine.Config) ([]Option, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	algo, _ := c.Algorithm()
	opts := []Option{WithAlgorithm(algo), WithMaxIterations(c.MaxIterations), WithFreezeAfter(c.FreezeAfter)}
	if c.ParallelRepair {
		opts = append(opts, WithParallelRepair(repair.Options{}))
	}
	eng.Backend = backends[c.Backend]
	eng.NetWorkers = c.NetWorkers
	return opts, nil
}
