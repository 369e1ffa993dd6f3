// Package cleanse orchestrates the full BigDansing pipeline of Figure 1:
// the RuleEngine detects violations and possible fixes, the repair
// algorithm chooses updates, the updates are applied, and the loop repeats
// until a repair (an instance with no violations, or only violations
// without possible fixes) is reached. Termination is guaranteed by the
// freezing device of Section 2.2: after a configurable number of updates, a
// cell is pinned and future violations that can only be fixed through it
// are abandoned.
package cleanse

import (
	"fmt"
	"slices"
	"time"

	"bigdansing/internal/core"
	"bigdansing/internal/engine"
	"bigdansing/internal/model"
	"bigdansing/internal/repair"
)

// Cleaner couples a rule set with a repair algorithm over one dataflow
// context. Build it with NewCleaner; the options are its configuration.
type Cleaner struct {
	// ctx is the dataflow context detection runs on.
	ctx *engine.Context
	// rules are detected by one core.IncrementalDetector per run.
	rules []*core.Rule
	// algo is the repair algorithm; nil defaults to the equivalence-class
	// algorithm.
	algo repair.Algorithm
	// parallel uses the black-box parallel repair of Section 5.1; false
	// runs the algorithm centralized over all violations, the baseline of
	// Figure 12(b).
	parallel   bool
	repairOpts repair.Options
	// maxIterations bounds the detect-repair loop (0: 10).
	maxIterations int
	// freezeAfter pins a cell after this many updates (0: 3).
	freezeAfter int

	// observer is WithObserver's sink, folded into engineCfg.Observer.
	observer engine.Observer
	// engineCfg, when set by WithEngineConfig, makes NewCleaner build the
	// context itself; ownsCtx records that Close must shut it down (on the
	// networked backend that terminates the spawned worker processes).
	engineCfg *engine.Config
	ownsCtx   bool
}

// Option configures a Cleaner built with NewCleaner.
type Option func(*Cleaner)

// WithAlgorithm selects the repair algorithm. nil keeps the default
// equivalence-class algorithm.
func WithAlgorithm(a repair.Algorithm) Option {
	return func(c *Cleaner) { c.algo = a }
}

// WithParallelRepair enables the black-box parallel repair of Section 5.1
// with the given options. The zero Options value uses the repair package
// defaults.
func WithParallelRepair(opts repair.Options) Option {
	return func(c *Cleaner) {
		c.parallel = true
		c.repairOpts = opts
	}
}

// WithMaxIterations bounds the detect-repair loop. Zero keeps the default
// of 10; negative values are rejected at construction.
func WithMaxIterations(n int) Option {
	return func(c *Cleaner) { c.maxIterations = n }
}

// WithFreezeAfter pins a cell after n updates (the termination device of
// Section 2.2). Zero keeps the default of 3; negative values are rejected
// at construction.
func WithFreezeAfter(n int) Option {
	return func(c *Cleaner) { c.freezeAfter = n }
}

// WithObserver routes the whole run's execution events — engine stages,
// plan compilation, detection pipelines, repair phases, detect-repair
// rounds — to o (for example a trace.Tracer), in whatever order it comes
// with WithEngineConfig: o is teed into the configuration's Observer before
// the context is built. The context's own Stats keeps counting alongside.
// A caller that supplies its own context sets engine.Config.Observer
// instead; combining the two is rejected at construction.
func WithObserver(o engine.Observer) Option {
	return func(c *Cleaner) { c.observer = o }
}

// WithEngineConfig makes the Cleaner build and own its dataflow context
// from cfg — the convenient way to run a cleanse on the networked backend
// (cfg.Backend = engine.BackendNet) without constructing a context by hand.
// Pass a nil context to NewCleaner when using it; combining it with a
// caller-supplied context is rejected at construction. Because the Cleaner
// owns the context, Close (on the Cleaner, or on a Session opened from it)
// shuts the backend down — on the networked backend that terminates the
// spawned worker processes.
func WithEngineConfig(cfg engine.Config) Option {
	return func(c *Cleaner) { c.engineCfg = &cfg }
}

// NewCleaner builds a Cleaner over ctx and rules, applying any options, and
// validates the combined configuration: a nil context, an empty or nil rule
// set, a rule that fails core validation, or a negative WithMaxIterations /
// WithFreezeAfter is rejected here instead of misbehaving at Clean or Flush
// time.
func NewCleaner(ctx *engine.Context, rules []*core.Rule, opts ...Option) (*Cleaner, error) {
	c := &Cleaner{ctx: ctx, rules: rules}
	for _, o := range opts {
		o(c)
	}
	if c.engineCfg != nil {
		if c.ctx != nil {
			return nil, fmt.Errorf("cleanse: WithEngineConfig combined with a caller-supplied context (pass a nil context)")
		}
		cfg := *c.engineCfg
		if c.observer != nil {
			cfg.Observer = engine.Tee(cfg.Observer, c.observer)
		}
		built, err := engine.NewContext(cfg)
		if err != nil {
			return nil, fmt.Errorf("cleanse: building engine context: %w", err)
		}
		c.ctx = built
		c.ownsCtx = true
	} else if c.observer != nil {
		return nil, fmt.Errorf("cleanse: WithObserver needs WithEngineConfig (a caller-supplied context takes its observer from engine.Config.Observer)")
	}
	if err := c.validate(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// Close releases the engine context when the Cleaner owns it (built via
// WithEngineConfig); on the networked backend that terminates the spawned
// worker processes. It is idempotent and a no-op for caller-supplied
// contexts — those stay the caller's to close.
func (c *Cleaner) Close() error {
	if !c.ownsCtx || c.ctx == nil {
		return nil
	}
	return c.ctx.Close()
}

// validate checks a configuration for the nonsensical states that used to
// surface as panics or silent defaults deep inside the loop.
func (c *Cleaner) validate() error {
	if c.ctx == nil {
		return fmt.Errorf("cleanse: nil engine context (build one with engine.New)")
	}
	if len(c.rules) == 0 {
		return fmt.Errorf("cleanse: no rules")
	}
	for i, r := range c.rules {
		if r == nil {
			return fmt.Errorf("cleanse: rule %d is nil", i)
		}
		if err := r.Validate(); err != nil {
			return fmt.Errorf("cleanse: invalid rule: %w", err)
		}
	}
	if c.maxIterations < 0 {
		return fmt.Errorf("cleanse: WithMaxIterations(%d): negative (0 keeps the default of 10)", c.maxIterations)
	}
	if c.freezeAfter < 0 {
		return fmt.Errorf("cleanse: WithFreezeAfter(%d): negative (0 keeps the default of 3)", c.freezeAfter)
	}
	return nil
}

// Result is one cleansing run: the repaired relation plus its Report.
type Result struct {
	// Clean is the repaired instance. The input is not modified: a
	// repaired tuple has cells of its own, and every other tuple shares its
	// cells with the input.
	Clean *model.Relation

	report Report
}

// Report is the one-struct summary of a cleansing run: what the loop did,
// what the dataflow engine did underneath, and what each parallel repair
// round decided. It replaces callers stitching together Result fields,
// engine.Stats getters and repair reports across three packages.
type Report struct {
	// Iterations is the number of detect-repair rounds executed.
	Iterations int
	// InitialViolations and RemainingViolations bracket the run.
	InitialViolations   int
	RemainingViolations int
	// UpdatesApplied counts cell updates applied across iterations.
	UpdatesApplied int
	// FrozenCells counts cells pinned by the termination device.
	FrozenCells int
	// DetectTime and RepairTime split the wall time (Figure 8(b)).
	DetectTime time.Duration
	RepairTime time.Duration
	// Engine is the dataflow execution snapshot (stages, shuffle volume,
	// spill activity) at the end of the run.
	Engine engine.Snapshot
	// RepairRounds holds the per-iteration parallel repair reports
	// (components, splits, conflicts, assignments); empty for the
	// centralized repair path.
	RepairRounds []*repair.Report
	// Flush is the 1-based ordinal of the session flush this report covers
	// (a one-shot Clean is its session's only flush, so 1).
	Flush int
	// Tuples is the relation size when the report was taken.
	Tuples int
}

// Report summarizes the run as one struct.
func (r *Result) Report() Report { return r.report }

// Clean runs the iterative cleansing process over rel without writing it.
// It is a thin one-batch session: a Session seeded with the Cleaner's
// configuration borrows rel's tuples, is flushed once, and is closed — the
// detect-repair loop, and its incremental detection, live in the Session.
// The session copies a tuple's cells on its first repair, so rel's cells
// are never written; Result.Clean shares the cells of every tuple repair
// left unchanged with rel.
func (c *Cleaner) Clean(rel *model.Relation) (*Result, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	s, err := newSession(*c, &model.Relation{Name: rel.Name, Schema: rel.Schema, Tuples: slices.Clone(rel.Tuples)})
	if err != nil {
		return nil, err
	}
	rep, err := s.flushLocked()
	if err != nil {
		return nil, err
	}
	s.closed = true
	return &Result{Clean: s.rel, report: rep}, nil
}
