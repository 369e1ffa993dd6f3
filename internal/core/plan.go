package core

import (
	"cmp"
	"fmt"

	"bigdansing/internal/join"
	"bigdansing/internal/model"
)

// Branch is one resolved input chain of a pipeline: the dataset label it
// reads (or the derived stream producing it), the Scope operators applied
// to it in order, and the optional Block operator keying it.
type Branch struct {
	// Label is the stream label the branch carries.
	Label string
	// Dataset is the input label the branch reads (a key of the plan's
	// Inputs map). Empty when the branch reads a derived stream.
	Dataset string
	// Derived, when non-nil, produces the branch's units from an upstream
	// Iterate instead of a base dataset — the D_M flow of Figure 4, where
	// one Iterate's output feeds further operators.
	Derived *Derived
	// Scopes are applied in order.
	Scopes []ScopeFunc
	// Block keys the stream; nil means unkeyed.
	Block BlockFunc
}

// Derived is an upstream Iterate whose emitted units form a stream: the
// items it produces are flattened back to data units (single-unit items
// pass through; list items expand; pair items contribute both units).
type Derived struct {
	Iterate  IterateFunc
	Branches []Branch
}

// Pipeline is the resolved plan of one Detect: its input branches, the
// Iterate joining them (nil for planner-chosen defaults), the Detect and
// the optional GenFix, plus the optimization hints.
type Pipeline struct {
	RuleID  string
	Detect  DetectFunc
	GenFix  GenFixFunc
	Iterate IterateFunc
	// Branches feed Iterate in order; for the common single-dataset rule
	// there is exactly one.
	Branches []Branch

	Symmetric  bool
	OrderConds []join.Cond
	Unary      bool

	// DetectBlock carries the rule's block kernel, when it has one (see
	// Rule.DetectBlock).
	DetectBlock BlockDetectFunc

	// reads carries the rule's declaration of the columns it reads (see
	// Rule.Reads): the pipeline moves its tuples projected onto them. Nil
	// moves them whole.
	reads []int
}

// LogicalPlan is the validated, resolved form of a job (Figure 3's output):
// the labeled input datasets plus one pipeline per Detect operator.
type LogicalPlan struct {
	Name      string
	Inputs    map[string]*model.Relation
	Pipelines []Pipeline
	// SharedScans counts the branch pairs the consolidation step merged
	// onto one scan (Algorithm 1); informational.
	SharedScans int
}

// BuildPlan turns a job into a logical plan following the planner flow of
// Figure 3: for each Detect, find its Iterate (or schedule a default), then
// walk backwards collecting matching Block and Scope operators per input
// label, ending at the input datasets.
func BuildPlan(j *Job) (*LogicalPlan, error) {
	if err := j.validate(); err != nil {
		return nil, err
	}
	lp := &LogicalPlan{Name: j.Name, Inputs: j.inputs}

	genFixFor := func(label string) GenFixFunc {
		for _, op := range j.ops {
			if op.Kind == OpGenFix && op.In[0] == label {
				return op.GenFix
			}
		}
		return nil
	}
	iterateFor := func(label string) *OpDecl {
		for i, op := range j.ops {
			if op.Kind == OpIterate && op.Out == label {
				return &j.ops[i]
			}
		}
		return nil
	}

	// resolveBranch walks Scope/Block declarations for one stream label,
	// recursing into upstream Iterates (Figure 4's chained flows). visiting
	// guards against label cycles.
	var resolveBranch func(label string, visiting map[string]bool) (Branch, error)
	resolveBranch = func(label string, visiting map[string]bool) (Branch, error) {
		b := Branch{Label: label}
		if visiting[label] {
			return b, fmt.Errorf("core: job %q: label %q forms a cycle", j.Name, label)
		}
		if _, isInput := j.inputs[label]; isInput {
			b.Dataset = label
		} else {
			up := iterateFor(label)
			if up == nil {
				return b, fmt.Errorf("core: job %q: label %q does not resolve to an input dataset or an Iterate output", j.Name, label)
			}
			visiting[label] = true
			d := &Derived{Iterate: up.Iterate}
			for _, in := range up.In {
				sub, err := resolveBranch(in, visiting)
				if err != nil {
					return b, err
				}
				d.Branches = append(d.Branches, sub)
			}
			delete(visiting, label)
			b.Derived = d
		}
		for _, op := range j.ops {
			switch op.Kind {
			case OpScope:
				if op.In[0] == label {
					b.Scopes = append(b.Scopes, op.Scope)
				}
			case OpBlock:
				if op.In[0] == label {
					if b.Block != nil {
						return b, fmt.Errorf("core: job %q: label %q has more than one Block", j.Name, label)
					}
					b.Block = op.Block
				}
			}
		}
		return b, nil
	}

	ndetect := 0
	for _, op := range j.ops {
		if op.Kind != OpDetect {
			continue
		}
		ndetect++
		h := op.Hints
		p := Pipeline{
			RuleID:      cmp.Or(h.Name, fmt.Sprintf("%s#%d", j.Name, ndetect)),
			Detect:      op.Detect,
			GenFix:      genFixFor(op.In[0]),
			Symmetric:   h.Symmetric,
			OrderConds:  h.OrderConds,
			Unary:       h.Unary,
			DetectBlock: h.DetectBlock,
			reads:       h.reads,
		}
		if it := iterateFor(op.In[0]); it != nil {
			p.Iterate = it.Iterate
			for _, in := range it.In {
				b, err := resolveBranch(in, map[string]bool{})
				if err != nil {
					return nil, err
				}
				p.Branches = append(p.Branches, b)
			}
		} else {
			// No Iterate: the Detect label must itself be a stream
			// (Section 3.2: "If Iterate is not specified, BigDansing
			// generates one according to the input required by Detect").
			b, err := resolveBranch(op.In[0], map[string]bool{})
			if err != nil {
				return nil, err
			}
			p.Branches = append(p.Branches, b)
		}
		lp.Pipelines = append(lp.Pipelines, p)
	}
	return lp, nil
}

// PlanRule builds the single-pipeline logical plan of a Rule over one
// relation — the path declarative rules take after translation.
func PlanRule(r *Rule, rel *model.Relation) (*LogicalPlan, error) {
	return planRules(r.ID, []*Rule{r}, rel)
}

// PlanRules plans several rules over the same relation as one logical plan,
// so consolidation can share scans across rules (the multi-rule HAI runs of
// Table 4 and the bushy plan of Appendix E).
func PlanRules(rs []*Rule, rel *model.Relation) (*LogicalPlan, error) {
	return planRules(rel.Name, rs, rel)
}

// planRules lowers rules into one job's declarations and builds its plan.
// Each rule declares the relation under its own label with its Scope and
// Block; a self CoBlock declares the relation a second time, under its own
// label, keyed by BlockRight. An Iterate (nil: the planner chooses) reads
// those labels, and the rule's Detect, carrying its ID and hints, and GenFix
// read the Iterate's output. Labels are unique per rule position, since rule
// IDs may repeat.
func planRules(name string, rs []*Rule, rel *model.Relation) (*LogicalPlan, error) {
	j := NewJob(name)
	for i, r := range rs {
		if err := r.Validate(); err != nil {
			return nil, err
		}
		l := r.ID
		if len(rs) > 1 {
			l = fmt.Sprintf("%d:%s", i, r.ID)
		}
		j.AddInput(rel, l)
		if r.Scope != nil {
			j.AddScope(r.Scope, l)
		}
		if r.Block != nil {
			j.AddBlock(r.Block, l)
		}
		in := []string{l}
		if r.BlockRight != nil {
			right := l + "/right"
			j.AddInput(rel, right)
			if r.Scope != nil {
				j.AddScope(r.Scope, right)
			}
			j.AddBlock(r.BlockRight, right)
			in = append(in, right)
		}
		cands := l + "/candidates"
		j.AddIterate(r.Iterate, cands, in...)
		j.AddDetect(r.Detect, cands, DetectHints{
			Name: r.ID, Symmetric: r.Symmetric, OrderConds: r.OrderConds,
			Unary: r.Unary, DetectBlock: r.DetectBlock,
			reads: r.Reads,
		})
		if r.GenFix != nil {
			j.AddGenFix(r.GenFix, cands)
		}
	}
	return BuildPlan(j)
}

// Consolidate implements Algorithm 1: logical operators that apply the same
// function to the same dataset under different labels are merged so that
// the execution shares one scan (and one scoped materialization) instead of
// duplicating the input. The executor honors the merge through scan keys;
// Consolidate records how many merges it found and returns the plan (the
// plan structure itself is unchanged — merging is a matter of keying, since
// branches already reference datasets by name).
func Consolidate(lp *LogicalPlan) *LogicalPlan {
	seen := make(map[scanKey]int)
	shared := 0
	for _, p := range lp.Pipelines {
		for _, b := range p.Branches {
			if b.Derived != nil {
				continue // derived streams are not base scans
			}
			k := scanOf(lp.Inputs[b.Dataset], b.Scopes)
			seen[k]++
			if seen[k] > 1 {
				shared++
			}
		}
	}
	lp.SharedScans = shared
	return lp
}
