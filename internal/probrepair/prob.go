// Package probrepair is the probabilistic repair backend (HoloClean-style,
// "Holistic Data Repairs with Probabilistic Inference"): instead of picking
// repairs by heuristic cost, it compiles each violation component into a
// factor graph over cells, learns factor weights from the clean portion of
// the data, estimates per-cell marginals by seeded Gibbs sampling, and
// commits the maximum-a-posteriori value — falling back to the
// equivalence-class choice whenever the marginal margin is too thin to
// trust.
//
// The subsystem plugs into the existing repair machinery unchanged: Prob
// implements repair.Algorithm (plus the Fitter/Cloner/SpanAlgorithm
// extension points), so cleanse sessions, the parallel black-box wrapper of
// Section 5.1 and the CLI/serve layers run it like any other algorithm.
// Components are independent subproblems, so inference parallelizes across
// the worker pool for free; determinism is preserved by deriving each
// component's RNG seed from Seed and an order-independent hash of the
// component's cells (see componentSeed).
package probrepair

import (
	"math/rand"
	"sort"
	"sync"

	"bigdansing/internal/engine"
	"bigdansing/internal/model"
	"bigdansing/internal/repair"
)

// Defaults for the zero-valued tuning knobs of Prob.
const (
	// DefaultSamples is the recorded Gibbs sweep count used when Samples
	// is negative, and the standard setting.
	DefaultSamples = 128
	// DefaultBurnIn is the discarded warm-up sweep count.
	DefaultBurnIn = 24
	// DefaultMinMargin is the marginal-probability margin below which the
	// sampler's answer is considered unsettled and the equivalence-class
	// choice is kept instead.
	DefaultMinMargin = 0.1
	// DefaultMaxDomain bounds each variable's candidate-value domain.
	DefaultMaxDomain = 16
	// DefaultRuleWeight is the prior weight of a rule-violation factor
	// (cross-cell inequality fixes). It is a prior, not learned: the clean
	// portion of the data exercises no rule factors, so there is nothing
	// to fit it on.
	DefaultRuleWeight = 2.5
	// DefaultConstWeight is the prior weight of a constant-fix factor
	// (CFD patterns, unary DCs) — hard requirements, mirrored by the
	// domain restriction in compile.
	DefaultConstWeight = 6.0
)

// Prob is the probabilistic repair algorithm. The zero value is valid but
// degenerate — Samples==0 disables sampling entirely and the algorithm
// returns exactly the equivalence-class answer (the degradation contract
// the property tests pin down). Set Samples to DefaultSamples for the
// standard configuration.
type Prob struct {
	// Samples is the number of recorded Gibbs sweeps per component.
	// 0 disables sampling (exact equivalence-class degradation); negative
	// selects DefaultSamples.
	Samples int
	// BurnIn is the number of discarded warm-up sweeps (<=0: DefaultBurnIn).
	BurnIn int
	// Seed drives every per-component sampler (0: 1). Runs with equal
	// seeds are byte-identical regardless of component order, worker
	// scheduling or test shuffling.
	Seed int64
	// MinMargin is the confidence threshold: when the top two marginal
	// estimates of a variable are closer than this, the equivalence-class
	// choice is kept (<=0: DefaultMinMargin; negative is clamped to 0).
	MinMargin float64
	// MaxDomain bounds a variable's candidate domain (<=0: DefaultMaxDomain).
	MaxDomain int
	// RuleWeight / ConstWeight are the factor priors (<=0: defaults).
	RuleWeight  float64
	ConstWeight float64
	// Learning hyperparameters for Fit (<=0: 3 epochs, 0.1 rate, 0.01 L2,
	// 2000 examples).
	LearnEpochs int
	LearnRate   float64
	L2          float64
	MaxExamples int
	// Observer receives the prob:compile / prob:learn / prob:infer spans
	// when Repair is called directly (serial use). The cleanse layers use
	// RepairSpanned instead and pass their own observer and parent span.
	Observer engine.Observer

	// learned is the state Fit produces: factor weights and the global
	// column-frequency tables the co-occurrence feature reads. Fit runs
	// before the (possibly concurrent) Repair calls of a flush round, so
	// the pointer swap needs no lock there; the mutex covers direct
	// library users that interleave Fit and Repair.
	mu      sync.Mutex
	learned *learnedState
}

// Name implements repair.Algorithm.
func (p *Prob) Name() string { return "prob" }

// CloneAlgorithm implements repair.Cloner: sessions get their own copy so
// per-session learned state never leaks across sessions.
func (p *Prob) CloneAlgorithm() repair.Algorithm {
	p.mu.Lock()
	defer p.mu.Unlock()
	cp := &Prob{
		Samples: p.Samples, BurnIn: p.BurnIn, Seed: p.Seed,
		MinMargin: p.MinMargin, MaxDomain: p.MaxDomain,
		RuleWeight: p.RuleWeight, ConstWeight: p.ConstWeight,
		LearnEpochs: p.LearnEpochs, LearnRate: p.LearnRate, L2: p.L2,
		MaxExamples: p.MaxExamples, Observer: p.Observer,
	}
	return cp
}

func (p *Prob) learnedRef() *learnedState {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.learned
}

func (p *Prob) setLearned(ls *learnedState) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.learned = ls
}

// weights bundles the resolved factor weights for one inference run.
type weights struct {
	min, cooc, rule, cst float64
}

func (p *Prob) weights() weights {
	w := weights{min: defaultMinWeight, cooc: defaultCoocWeight, rule: p.RuleWeight, cst: p.ConstWeight}
	if ls := p.learnedRef(); ls != nil {
		w.min, w.cooc = ls.wMin, ls.wCooc
	}
	if w.rule <= 0 {
		w.rule = DefaultRuleWeight
	}
	if w.cst <= 0 {
		w.cst = DefaultConstWeight
	}
	return w
}

func (p *Prob) minMargin() float64 {
	if p.MinMargin == 0 {
		return DefaultMinMargin
	}
	if p.MinMargin < 0 {
		return 0
	}
	return p.MinMargin
}

// Repair implements repair.Algorithm (serial use: spans, if any, go to
// p.Observer with scoped nesting).
func (p *Prob) Repair(component []model.FixSet) ([]repair.Assignment, error) {
	return p.RepairSpanned(component, p.Observer, nil)
}

// RepairSpanned implements repair.SpanAlgorithm: the cleanse layers pass
// their observer and the enclosing repair span explicitly, which is what
// the tracer's contract requires when components repair concurrently.
func (p *Prob) RepairSpanned(component []model.FixSet, obs engine.Observer, parent engine.Span) ([]repair.Assignment, error) {
	if obs == nil {
		obs = engine.Discard
	}
	// The equivalence-class answer is always computed: it is the Samples==0
	// degradation target and the below-margin fallback.
	eqAs, err := (&repair.EquivalenceClass{}).Repair(component)
	if err != nil {
		return nil, err
	}
	samples := p.Samples
	if samples < 0 {
		samples = DefaultSamples
	}
	if samples == 0 {
		return eqAs, nil
	}
	burnIn := p.BurnIn
	if burnIn <= 0 {
		burnIn = DefaultBurnIn
	}
	maxDomain := p.MaxDomain
	if maxDomain <= 0 {
		maxDomain = DefaultMaxDomain
	}

	csp := obs.BeginSpan(parent, "prob:compile", engine.SpanRepair)
	g := compile(component, p.learnedRef(), maxDomain)
	csp.Attr(engine.AttrVariables, int64(len(g.vars)))
	csp.Attr(engine.AttrFactors, int64(g.nFactors))
	csp.End()
	if len(g.vars) == 0 {
		return eqAs, nil
	}

	isp := obs.BeginSpan(parent, "prob:infer", engine.SpanRepair)
	rng := rand.New(rand.NewSource(p.componentSeed(g)))
	counts, st := g.run(rng, burnIn, samples, p.weights())

	eqByCell := make(map[model.CellKey]model.Value, len(eqAs))
	for _, a := range eqAs {
		eqByCell[a.CellKey()] = a.Value
	}
	var out []repair.Assignment
	minMargin := p.minMargin()
	for vi, v := range g.vars {
		bestIdx, best, second := 0, -1, -1
		for d, c := range counts[vi] {
			if c > best {
				second = best
				best, bestIdx = c, d
			} else if c > second {
				second = c
			}
		}
		margin := float64(best-second) / float64(samples)
		if margin < minMargin {
			// Unsettled marginal: keep the equivalence-class choice for
			// the variable's cells (possibly "leave unchanged").
			for _, c := range v.cells {
				if ev, ok := eqByCell[c.MapKey()]; ok && !c.Value.Equal(ev) {
					out = append(out, repair.Assignment{
						TupleID: c.TupleID, Col: c.Col, Value: ev,
					})
				}
			}
			continue
		}
		target := v.domain[bestIdx]
		for _, c := range v.cells {
			if !c.Value.Equal(target) {
				out = append(out, repair.Assignment{
					TupleID: c.TupleID, Col: c.Col, Value: target,
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TupleID != out[j].TupleID {
			return out[i].TupleID < out[j].TupleID
		}
		return out[i].Col < out[j].Col
	})
	isp.Attr(engine.AttrSamples, int64(st.samples))
	isp.Attr(engine.AttrAccepted, int64(st.accepted))
	isp.Attr(engine.AttrAssignments, int64(len(out)))
	isp.End()
	return out, nil
}

// componentSeed derives the per-component RNG seed: Seed mixed with an
// order-independent hash of the component's cell keys, so the same
// component samples identically no matter how fix sets were ordered or
// which worker ran it.
func (p *Prob) componentSeed(g *fgraph) int64 {
	seed := p.Seed
	if seed == 0 {
		seed = 1
	}
	keys := make([]model.CellKey, 0, len(g.cellVar))
	for k := range g.cellVar {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	h := uint64(0x9e3779b97f4a7c15)
	for _, k := range keys {
		h = splitmix64(h ^ k.Hash())
	}
	return int64(splitmix64(uint64(seed)) ^ h)
}

// splitmix64 is the SplitMix64 finalizer — a cheap, well-distributed mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
