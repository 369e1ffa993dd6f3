package core

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"

	"bigdansing/internal/engine"
	"bigdansing/internal/model"
)

// This file holds the planner's cost side: the Cost vector, the CostModel
// interface with its two implementations (StaticCost reproduces the legacy
// rule-shape choices; CostBased prices scan, shuffle, pair enumeration and
// spill), the per-relation statistics gathered in one sampling pass, and the
// Observer-feedback loop (FeedbackRecorder / Feedback files) that lets
// repeated runs converge on measured pair counts.

// Cost is the planner's estimate for one physical alternative, broken into
// the components of the model so EXPLAIN can show where an alternative loses.
// Units are abstract "work" (roughly bytes moved / comparisons weighted by
// the model); only relative order matters.
type Cost struct {
	// Scan prices reading the branch inputs.
	Scan float64
	// Shuffle prices moving tuples across partitions (into one partition for
	// broadcast variants), including stage-setup overhead.
	Shuffle float64
	// Pairs prices enumerating and Detect-ing the candidate pairs.
	Pairs float64
	// Spill penalizes working sets past the memory budget.
	Spill float64
}

// Total folds the components into the scalar the planner minimizes.
func (c Cost) Total() float64 { return c.Scan + c.Shuffle + c.Pairs + c.Spill }

// String renders the cost compactly for EXPLAIN output.
func (c Cost) String() string {
	return fmt.Sprintf("total=%.0f (scan=%.0f shuffle=%.0f pairs=%.0f spill=%.0f)",
		c.Total(), c.Scan, c.Shuffle, c.Pairs, c.Spill)
}

// BlockKeyStats describes one candidate Block column of a relation.
type BlockKeyStats struct {
	// Distinct estimates the number of distinct block keys.
	Distinct int64
	// TopFraction is the fraction of rows carried by the most frequent key
	// (1/Distinct for uniform data; near 1 for heavily skewed keys).
	TopFraction float64
	// KeyBytes is the average encoded key size.
	KeyBytes float64
}

// TableStats are the cheap per-branch statistics one sampling pass gathers:
// the (post-Scope) row count, the average tuple size, and per candidate
// block key the distinct count and skew.
type TableStats struct {
	Rows       int64
	TupleBytes float64
	// BlockKeys maps a block-key name (Branch.BlockAttr / AltBlockAttrs) to
	// its statistics.
	BlockKeys map[string]BlockKeyStats
}

// CostInputs carries everything a CostModel may price for one alternative.
type CostInputs struct {
	Impl      IterImpl
	Broadcast bool
	// Default marks the alternative the legacy rule-shape switch would have
	// chosen; StaticCost keys on it.
	Default bool

	// Rows/TupleBytes describe the (first) branch; RowsRight/TupleBytesRight
	// the second branch of a CoBlock (zero otherwise).
	Rows            int64
	TupleBytes      float64
	RowsRight       int64
	TupleBytesRight float64

	// HasBlock reports whether the alternative partitions by a block key;
	// Block (and BlockRight for CoBlock) then carry that key's statistics.
	HasBlock   bool
	Block      BlockKeyStats
	BlockRight BlockKeyStats

	// NumParts is the OCJoin partition count of this alternative (0 =
	// parallelism); Parallelism is the worker count.
	NumParts    int
	Parallelism int
	// MemoryBudget caps the in-memory working set (0 = unbounded).
	MemoryBudget int64
	// MeasuredPairs, when > 0, is the pair count a prior run observed for
	// this pipeline (Observer feedback); models should prefer it over the
	// statistical estimate.
	MeasuredPairs int64
}

// CostModel prices one physical alternative.
type CostModel interface {
	// Name identifies the model in EXPLAIN output ("static", "cost").
	Name() string
	// Cost returns the estimate for one alternative.
	Cost(in CostInputs) Cost
}

// StaticCost selects enhancers from the rule's structure alone (Section
// 4.2):
//
//   - ordering-comparison rules take OCJoin;
//   - two-branch (or doubly-keyed) rules take CoBlock;
//   - symmetric blocked rules take UCrossProduct within blocks;
//   - asymmetric blocked rules fall back to ordered pairs;
//   - user Iterates are wrapped unchanged.
//
// The default (rule-shape) alternative costs zero, everything else costs
// more, and the planner breaks ties in enumeration order. It needs no
// statistics, so the planner skips the sampling pass entirely under this
// model.
type StaticCost struct{}

// Name implements CostModel.
func (StaticCost) Name() string { return "static" }

// Cost implements CostModel.
func (StaticCost) Cost(in CostInputs) Cost {
	if in.Default {
		return Cost{}
	}
	return Cost{Pairs: 1}
}

// CostBased is the statistics-driven model: scan cost per byte read, shuffle
// cost per byte moved plus per-stage setup, pair-enumeration cost per
// candidate pair, and a spill penalty once the working set exceeds the
// memory budget. Zero-value weights are replaced by the defaults of
// NewCostModel.
type CostBased struct {
	// ScanByte prices reading one input byte.
	ScanByte float64
	// ShuffleByte prices moving one byte through a hash shuffle.
	ShuffleByte float64
	// CollectByte prices moving one byte into the single partition of a
	// broadcast variant; one task does that work, so it is not divided by
	// parallelism.
	CollectByte float64
	// StageSetup is the fixed overhead of scheduling one shuffle stage.
	StageSetup float64
	// PartSetup is the per-partition overhead of OCJoin range partitioning.
	PartSetup float64
	// PairCost prices enumerating + Detect-ing one candidate pair.
	PairCost float64
	// SpillByte penalizes each working-set byte past the budget on
	// operators that can spill (blocked shuffles).
	SpillByte float64
	// NoSpillByte penalizes each byte past the budget on the broadcast
	// variants, whose one task must hold or spill the whole working set, so
	// budgeted runs steer away from them.
	NoSpillByte float64
}

// NewCostModel returns the CostBased model with its default weights. The
// weights are deliberately coarse — they only need to order alternatives
// correctly at the crossovers the tests pin down (tiny relations prefer
// broadcast, budgeted memory prefers spillable shuffles, skewed keys prefer
// the key with less skew).
func NewCostModel() *CostBased {
	return &CostBased{
		ScanByte:    1,
		ShuffleByte: 1,
		CollectByte: 2,
		StageSetup:  65536,
		PartSetup:   2048,
		PairCost:    16,
		SpillByte:   2,
		NoSpillByte: 8,
	}
}

// Name implements CostModel.
func (m *CostBased) Name() string { return "cost" }

// estPairs estimates the candidate pairs a blocked enumeration produces:
// the top block contributes top^2, the remaining rows are assumed uniform
// over the remaining keys. unique halves the count (UCrossProduct).
func estPairs(rows int64, ks BlockKeyStats, unique bool) float64 {
	n := float64(rows)
	if n <= 0 {
		return 0
	}
	d := float64(ks.Distinct)
	if d < 1 {
		d = 1
	}
	f := ks.TopFraction
	if f < 1/d {
		f = 1 / d
	}
	if f > 1 {
		f = 1
	}
	top := f * n
	rest := n - top
	pairs := top * top
	if rest > 0 {
		restKeys := d - 1
		if restKeys < 1 {
			restKeys = 1
		}
		pairs += rest * (rest / restKeys)
	}
	if unique {
		pairs /= 2
	}
	return pairs
}

// Cost implements CostModel.
func (m *CostBased) Cost(in CostInputs) Cost {
	w := *m
	def := NewCostModel()
	if w.ScanByte == 0 {
		w.ScanByte = def.ScanByte
	}
	if w.ShuffleByte == 0 {
		w.ShuffleByte = def.ShuffleByte
	}
	if w.CollectByte == 0 {
		w.CollectByte = def.CollectByte
	}
	if w.StageSetup == 0 {
		w.StageSetup = def.StageSetup
	}
	if w.PartSetup == 0 {
		w.PartSetup = def.PartSetup
	}
	if w.PairCost == 0 {
		w.PairCost = def.PairCost
	}
	if w.SpillByte == 0 {
		w.SpillByte = def.SpillByte
	}
	if w.NoSpillByte == 0 {
		w.NoSpillByte = def.NoSpillByte
	}

	p := float64(in.Parallelism)
	if p < 1 {
		p = 1
	}
	n := float64(in.Rows)
	tb := in.TupleBytes
	var c Cost
	c.Scan = n * tb * w.ScanByte / p
	if in.RowsRight > 0 {
		c.Scan += float64(in.RowsRight) * in.TupleBytesRight * w.ScanByte / p
	}

	over := func(workingSet float64, spillable bool) float64 {
		if in.MemoryBudget <= 0 {
			return 0
		}
		excess := workingSet - float64(in.MemoryBudget)
		if excess <= 0 {
			return 0
		}
		if spillable {
			return excess * w.SpillByte
		}
		return excess * w.NoSpillByte
	}

	pairUnits := func(est float64) float64 {
		if in.MeasuredPairs > 0 {
			return float64(in.MeasuredPairs)
		}
		return est
	}

	switch {
	case in.Impl == IterSingles:
		c.Pairs = pairUnits(n) * w.PairCost / p
	case in.Impl == IterCustom:
		// User Iterates are opaque; assume linear work plus the shuffle the
		// blocking (if any) implies.
		if in.HasBlock && !in.Broadcast {
			c.Shuffle = w.StageSetup + n*(tb+in.Block.KeyBytes)*w.ShuffleByte/p
		}
		c.Pairs = pairUnits(n) * w.PairCost / p
	case in.Impl == IterOCJoin:
		parts := float64(in.NumParts)
		if parts < 1 {
			parts = p
		}
		c.Shuffle = w.StageSetup + n*tb*w.ShuffleByte/p + parts*w.PartSetup
		c.Pairs = pairUnits(n*n/parts) * w.PairCost / p
		c.Spill = over(n*tb/parts, true)
	case in.Impl == IterCoBlockPairs:
		nr := float64(in.RowsRight)
		tbr := in.TupleBytesRight
		if in.Broadcast {
			c.Shuffle = w.StageSetup + (n*tb+nr*tbr)*w.CollectByte
			c.Spill = over(n*tb+nr*tbr, false)
		} else {
			c.Shuffle = 2*w.StageSetup +
				(n*(tb+in.Block.KeyBytes)+nr*(tbr+in.BlockRight.KeyBytes))*w.ShuffleByte/p
			c.Spill = over((n*(tb+in.Block.KeyBytes)+nr*(tbr+in.BlockRight.KeyBytes))/p, true)
		}
		// Pairs across co-grouped bags: assume the left key's distribution
		// governs matching (rows paired per shared key).
		d := float64(in.Block.Distinct)
		if d < 1 {
			d = 1
		}
		c.Pairs = pairUnits(n*nr/d) * w.PairCost / p
	case in.HasBlock && in.Broadcast:
		// Group the scoped stream into one partition and enumerate pairs
		// there: one stage setup, but one task and one working set.
		c.Shuffle = w.StageSetup + n*tb*w.CollectByte
		c.Pairs = pairUnits(estPairs(in.Rows, in.Block, in.Impl == IterUniquePairs)) * w.PairCost
		c.Spill = over(n*tb, false)
	case in.HasBlock:
		c.Shuffle = 2*w.StageSetup + n*(tb+in.Block.KeyBytes)*w.ShuffleByte/p
		c.Pairs = pairUnits(estPairs(in.Rows, in.Block, in.Impl == IterUniquePairs)) * w.PairCost / p
		c.Spill = over(n*(tb+in.Block.KeyBytes), true)
	default:
		// Unblocked cross product: the whole relation is one block.
		est := n * n
		if in.Impl == IterUniquePairs {
			est /= 2
		}
		c.Pairs = pairUnits(est) * w.PairCost / p
		c.Spill = over(n*tb, true)
	}
	return c
}

// statsSampleCap bounds how many tuples the sampling pass examines per
// branch; larger relations are strided.
const statsSampleCap = 512

// sampleBranchStats gathers TableStats for one branch in a single pass over
// a sample of the relation: it applies the branch's Scope chain to estimate
// selectivity, measures encoded tuple size, and per candidate block key
// counts distinct values and the top-key fraction.
func sampleBranchStats(rel *model.Relation, b Branch, parallelism int) TableStats {
	_ = parallelism
	st := TableStats{BlockKeys: map[string]BlockKeyStats{}}
	if rel == nil || len(rel.Tuples) == 0 {
		return st
	}
	n := len(rel.Tuples)
	stride := n / statsSampleCap
	if stride < 1 {
		stride = 1
	}

	type keyAgg struct {
		counts map[model.ValueKey]int64
		bytes  float64
		total  int64
	}
	keys := []struct {
		name string
		fn   BlockFunc
	}{}
	if b.Block != nil {
		keys = append(keys, struct {
			name string
			fn   BlockFunc
		}{blockKeyName(b, -1), b.Block})
	}
	for i, alt := range b.AltBlocks {
		keys = append(keys, struct {
			name string
			fn   BlockFunc
		}{blockKeyName(b, i), alt})
	}
	aggs := make([]keyAgg, len(keys))
	for i := range aggs {
		aggs[i].counts = map[model.ValueKey]int64{}
	}

	sampled, kept := 0, 0
	var tupleBytes float64
	for i := 0; i < n; i += stride {
		t := rel.Tuples[i]
		sampled++
		units := []model.Tuple{t}
		for _, sc := range b.Scopes {
			var next []model.Tuple
			for _, u := range units {
				next = append(next, sc(u)...)
			}
			units = next
			if len(units) == 0 {
				break
			}
		}
		for _, u := range units {
			kept++
			tupleBytes += float64(len(model.EncodeTuple(u)))
			for ki, k := range keys {
				v := k.fn(u)
				aggs[ki].counts[v.MapKey()]++
				aggs[ki].bytes += float64(len(v.Key()))
				aggs[ki].total++
			}
		}
	}
	if sampled == 0 {
		return st
	}
	// Extrapolate the scoped row count from the sample's selectivity.
	st.Rows = int64(float64(n) * float64(kept) / float64(sampled))
	if kept > 0 {
		st.TupleBytes = tupleBytes / float64(kept)
	}
	for ki, k := range keys {
		a := aggs[ki]
		if a.total == 0 {
			continue
		}
		d := int64(len(a.counts))
		var top int64
		for _, c := range a.counts {
			if c > top {
				top = c
			}
		}
		// Distinct extrapolation: a saturated sample (most keys repeat) is
		// kept as-is; a sample where keys look near-unique scales with the
		// row count, capped by it.
		if d*2 >= a.total {
			scaled := int64(float64(d) * float64(st.Rows) / float64(a.total))
			if scaled > st.Rows {
				scaled = st.Rows
			}
			if scaled > d {
				d = scaled
			}
		}
		st.BlockKeys[k.name] = BlockKeyStats{
			Distinct:    d,
			TopFraction: float64(top) / float64(a.total),
			KeyBytes:    a.bytes / float64(a.total),
		}
	}
	return st
}

// PipelineFeedback is what one observed run contributes per pipeline.
type PipelineFeedback struct {
	// Pairs is the measured candidate-pair count (AttrPairs).
	Pairs int64 `json:"pairs"`
	// Violations is the measured violation count (AttrViolations).
	Violations int64 `json:"violations"`
}

// Feedback is a persisted set of per-pipeline measurements from prior runs,
// keyed by rule ID. It round-trips through -stats-out/-stats-in as JSON and
// is what WithObserverFeedback feeds back into the planner.
type Feedback struct {
	Pipelines map[string]PipelineFeedback `json:"pipelines"`
}

// PlanFeedback implements FeedbackSource (a Feedback is its own source).
func (f *Feedback) PlanFeedback() *Feedback { return f }

// WriteFile persists the feedback as JSON.
func (f *Feedback) WriteFile(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFeedbackFile loads a -stats-out file back in.
func ReadFeedbackFile(path string) (*Feedback, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f := &Feedback{}
	if err := json.Unmarshal(data, f); err != nil {
		return nil, fmt.Errorf("core: stats file %s: %w", path, err)
	}
	if f.Pipelines == nil {
		f.Pipelines = map[string]PipelineFeedback{}
	}
	return f, nil
}

// FeedbackSource supplies prior-run measurements to a Planner; Feedback and
// FeedbackRecorder both implement it.
type FeedbackSource interface {
	PlanFeedback() *Feedback
}

// FeedbackRecorder is an engine.Observer that harvests the per-pipeline
// measurements the planner can learn from (AttrPairs, AttrViolations on
// SpanPipeline spans) while discarding everything else. Install it with
// engine.Tee alongside the regular observer, then feed it to the next run's
// planner via WithObserverFeedback — or persist it with
// PlanFeedback().WriteFile for the -stats-out/-stats-in round-trip.
// Long-lived serve sessions hold one recorder so every flush re-plans
// against the previous flush's measurements.
type FeedbackRecorder struct {
	mu sync.Mutex
	fb Feedback
}

// NewFeedbackRecorder returns an empty recorder.
func NewFeedbackRecorder() *FeedbackRecorder {
	return &FeedbackRecorder{fb: Feedback{Pipelines: map[string]PipelineFeedback{}}}
}

// PlanFeedback implements FeedbackSource: a snapshot of what has been
// recorded so far (latest measurement per pipeline wins).
func (r *FeedbackRecorder) PlanFeedback() *Feedback {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := &Feedback{Pipelines: make(map[string]PipelineFeedback, len(r.fb.Pipelines))}
	for k, v := range r.fb.Pipelines {
		out.Pipelines[k] = v
	}
	return out
}

// BeginSpan implements engine.Observer: pipeline spans are captured, the
// rest are discarded.
func (r *FeedbackRecorder) BeginSpan(parent engine.Span, name string, kind engine.SpanKind) engine.Span {
	if kind != engine.SpanPipeline {
		return engine.Discard.BeginSpan(parent, name, kind)
	}
	return &fbSpan{rec: r, name: name}
}

// Count implements engine.Observer (flat counters are not used).
func (r *FeedbackRecorder) Count(engine.Metric, int64) {}

type fbSpan struct {
	rec        *FeedbackRecorder
	name       string
	pairs      int64
	violations int64
	done       bool
}

func (s *fbSpan) Attr(k engine.Attr, v int64) {
	switch k {
	case engine.AttrPairs:
		s.pairs = v
	case engine.AttrViolations:
		s.violations = v
	}
}

func (s *fbSpan) End() {
	if s.done {
		return
	}
	s.done = true
	s.rec.mu.Lock()
	defer s.rec.mu.Unlock()
	s.rec.fb.Pipelines[s.name] = PipelineFeedback{Pairs: s.pairs, Violations: s.violations}
}

// sortedPipelineIDs returns the feedback's rule IDs in stable order (for
// deterministic EXPLAIN / test output).
func sortedPipelineIDs(f *Feedback) []string {
	ids := make([]string, 0, len(f.Pipelines))
	for id := range f.Pipelines {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
