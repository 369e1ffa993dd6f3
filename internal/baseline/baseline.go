// Package baseline implements the comparison systems of the evaluation
// (Section 6.1): a NADEEF-like single-node detector, SQL-engine proxies
// (PostgreSQL-, Spark-SQL- and Shark-like) that detect violations through
// self joins, and the "Detect-only" configuration of Figure 12(a) that
// strips BigDansing's Scope/Block/Iterate operators.
//
// The proxies reproduce the cost *profiles* the paper attributes to each
// system rather than the systems themselves: NADEEF issues one
// query-shaped check per candidate pair on a single thread; SQL engines
// read the input twice for a self join and emit duplicate violations (both
// orientations); engines without inequality-join support fall back to a
// cross product with a post-selection.
package baseline

import (
	"fmt"
	"time"

	"bigdansing/internal/core"
	"bigdansing/internal/engine"
	"bigdansing/internal/model"
)

// NadeefQueryLatency simulates the client/DBMS round trip of one NADEEF
// query. NADEEF detects violations by issuing thousands of SQL queries to
// the underlying DBMS (Section 6.2); since this reproduction has no
// out-of-process DBMS, each issued query charges this latency. One query is
// issued per block (blocked rules) or per cursor fetch of 1000 candidates
// (unblocked rules). Tests set it to 0.
var NadeefQueryLatency = time.Millisecond

// Result mirrors core.DetectResult for baseline runs. Violations is the
// raw emitted list — deliberately *not* deduplicated for the SQL proxies,
// which the paper notes emit duplicates from self joins.
type Result struct {
	Violations []model.Violation
}

// NadeefDetect emulates NADEEF's detection: a single-threaded scan over
// candidate tuple pairs where every candidate is checked through a
// query-shaped round trip (NADEEF "issues thousands of SQL queries to the
// underlying DBMS", Section 6.2). Blocking is honored when the rule defines
// it — NADEEF supports blocks — but pairs are enumerated and checked one at
// a time with per-check query formatting overhead.
func NadeefDetect(rule *core.Rule, rel *model.Relation) (*Result, error) {
	if err := rule.Validate(); err != nil {
		return nil, err
	}
	res := &Result{}
	var out core.Output
	pairsSinceQuery := 0
	roundTrip := func() {
		if NadeefQueryLatency > 0 {
			time.Sleep(NadeefQueryLatency)
		}
	}
	check := func(a, b model.Tuple) {
		// NADEEF builds a per-candidate statement client-side; the round
		// trip itself is charged per cursor fetch of 1000 candidates.
		q := fmt.Sprintf("SELECT * FROM %s WHERE t1=%d AND t2=%d /*rule %s*/",
			rel.Name, a.ID, b.ID, rule.ID)
		_ = q
		pairsSinceQuery++
		if pairsSinceQuery >= 1000 {
			pairsSinceQuery = 0
			roundTrip()
		}
		rule.Detect(core.PairItem(a, b), &out)
	}
	scoped := rel.Tuples
	if rule.Scope != nil {
		scoped = scoped[:0:0]
		for _, t := range rel.Tuples {
			scoped = append(scoped, rule.Scope(t)...)
		}
	}
	if rule.Unary {
		for _, t := range scoped {
			rule.Detect(core.Single(t), &out)
		}
		res.Violations = out.Violations()
		return res, nil
	}
	if rule.Block != nil {
		blocks := map[model.ValueKey][]model.Tuple{}
		for _, t := range scoped {
			k := rule.Block(t).MapKey()
			blocks[k] = append(blocks[k], t)
		}
		for _, us := range blocks {
			roundTrip() // one query fetches each block's candidates
			for i := 0; i < len(us); i++ {
				for j := i + 1; j < len(us); j++ {
					check(us[i], us[j])
					if !rule.Symmetric {
						check(us[j], us[i])
					}
				}
			}
		}
		res.Violations = out.Violations()
		return res, nil
	}
	// No blocking (inequality DCs, UDFs without Block): full pair space.
	for i := 0; i < len(scoped); i++ {
		for j := 0; j < len(scoped); j++ {
			if i == j {
				continue
			}
			if rule.Symmetric && j < i {
				continue
			}
			check(scoped[i], scoped[j])
		}
	}
	res.Violations = out.Violations()
	return res, nil
}

// SQLMode selects which engine's cost profile a SQL proxy run follows.
type SQLMode int

const (
	// Postgres: single-threaded; hash self-join for equality rules,
	// nested-loop cross product with post-selection for inequality rules.
	Postgres SQLMode = iota
	// SparkSQL: like Postgres but the probe side runs in parallel.
	SparkSQL
	// Shark: parallel, but joins are processed inefficiently — every join
	// becomes a cross product with a post-selection (Section 6.3 observes
	// "Shark does not process joins efficiently").
	Shark
)

// String names the mode.
func (m SQLMode) String() string {
	switch m {
	case Postgres:
		return "postgresql"
	case SparkSQL:
		return "spark-sql"
	case Shark:
		return "shark"
	default:
		return "sql?"
	}
}

// SQLDetect emulates detecting a rule's violations with a SQL self join:
// the input is scanned twice (build and probe sides are materialized
// separately, the double-read the paper charges to SQL engines), equality
// rules join on the blocking key, and the emitted violations include both
// orientations (SQL engines "generate duplicate violations ... when
// comparing tuples using self-joins").
func SQLDetect(ctx *engine.Context, mode SQLMode, rule *core.Rule, rel *model.Relation) (*Result, error) {
	if err := rule.Validate(); err != nil {
		return nil, err
	}
	res := &Result{}

	// Two scans: build side and probe side are separate copies.
	scan := func() []model.Tuple {
		out := make([]model.Tuple, 0, len(rel.Tuples))
		if rule.Scope != nil {
			for _, t := range rel.Tuples {
				out = append(out, rule.Scope(t)...)
			}
			return out
		}
		return append(out, rel.Tuples...)
	}
	build := scan()
	probe := scan()

	if rule.Unary {
		var out core.Output
		for _, t := range build {
			rule.Detect(core.Single(t), &out)
		}
		res.Violations = out.Violations()
		return res, nil
	}

	useHashJoin := rule.Block != nil && mode != Shark
	switch {
	case useHashJoin:
		// Hash self join on the blocking key.
		idx := map[model.ValueKey][]model.Tuple{}
		for _, t := range build {
			k := rule.Block(t).MapKey()
			idx[k] = append(idx[k], t)
		}
		probeOne := func(t model.Tuple) []model.Violation {
			var out core.Output
			for _, m := range idx[rule.Block(t).MapKey()] {
				if m.ID == t.ID {
					continue
				}
				rule.Detect(core.PairItem(t, m), &out) // both orientations reached over the probe scan
			}
			return out.Violations()
		}
		if mode == SparkSQL {
			d := engine.Parallelize(ctx, probe, 0)
			vio := engine.FlatMap(d, probeOne)
			vs, err := vio.Collect()
			if err != nil {
				return nil, err
			}
			res.Violations = vs
		} else {
			for _, t := range probe {
				res.Violations = append(res.Violations, probeOne(t)...)
			}
		}
	default:
		// Cross product + post-selection (inequality rules everywhere;
		// every rule on Shark). The equality predicate, when present, is
		// evaluated per pair over precomputed key columns — the
		// post-selection of a plan without a join, not a repeated UDF call.
		var buildKeys, probeKeys []model.ValueKey
		if rule.Block != nil {
			buildKeys = make([]model.ValueKey, len(build))
			for i, t := range build {
				buildKeys[i] = rule.Block(t).MapKey()
			}
			probeKeys = make([]model.ValueKey, len(probe))
			for i, t := range probe {
				probeKeys[i] = rule.Block(t).MapKey()
			}
		}
		type indexed struct {
			pos int
			t   model.Tuple
		}
		probeOne := func(p indexed) []model.Violation {
			var out core.Output
			for i, m := range build {
				if m.ID == p.t.ID {
					continue
				}
				// A cross join materializes the concatenated output row
				// before the WHERE clause runs — the cost that makes
				// cartesian-based plans collapse at scale.
				row := make([]model.Value, 0, len(p.t.Cells)+len(m.Cells))
				row = append(row, p.t.Cells...)
				row = append(row, m.Cells...)
				_ = row
				if buildKeys != nil && probeKeys[p.pos] != buildKeys[i] {
					continue // post-selection on the equality predicate
				}
				rule.Detect(core.PairItem(p.t, m), &out)
			}
			return out.Violations()
		}
		idxProbe := make([]indexed, len(probe))
		for i, t := range probe {
			idxProbe[i] = indexed{pos: i, t: t}
		}
		if mode == Postgres {
			for _, p := range idxProbe {
				res.Violations = append(res.Violations, probeOne(p)...)
			}
		} else {
			d := engine.Parallelize(ctx, idxProbe, 0)
			vio := engine.FlatMap(d, probeOne)
			vs, err := vio.Collect()
			if err != nil {
				return nil, err
			}
			res.Violations = vs
		}
	}
	return res, nil
}

// DetectOnly runs a rule through BigDansing with only its Detect operator,
// the ablation of Figure 12(a): Scope, Block, Iterate and the enhancer
// hints are stripped, so the planner falls back to the full cross product.
func DetectOnly(ctx *engine.Context, rule *core.Rule, rel *model.Relation) (*core.DetectResult, error) {
	stripped := &core.Rule{
		ID:     rule.ID + "/detect-only",
		Detect: rule.Detect,
		GenFix: rule.GenFix,
	}
	return core.DetectRule(ctx, stripped, rel)
}

// UniqueViolations counts distinct violations in a baseline result (SQL
// proxies emit duplicates; this is what comparing against BigDansing's
// deduplicated output requires).
func (r *Result) UniqueViolations() int {
	seen := map[model.ViolationKey]bool{}
	for _, v := range r.Violations {
		seen[v.MapKey()] = true
	}
	return len(seen)
}
