package core

import (
	"fmt"

	"bigdansing/internal/join"
	"bigdansing/internal/model"
)

// OpKind identifies a logical operator in a job.
type OpKind uint8

const (
	// OpScope is the Scope operator.
	OpScope OpKind = iota
	// OpBlock is the Block operator.
	OpBlock
	// OpIterate is the Iterate operator.
	OpIterate
	// OpDetect is the Detect operator.
	OpDetect
	// OpGenFix is the GenFix operator.
	OpGenFix
)

// String names the operator kind.
func (k OpKind) String() string {
	switch k {
	case OpScope:
		return "Scope"
	case OpBlock:
		return "Block"
	case OpIterate:
		return "Iterate"
	case OpDetect:
		return "Detect"
	case OpGenFix:
		return "GenFix"
	default:
		return "Op?"
	}
}

// OpDecl is one labeled operator in a job. Labels stamp data streams and
// define the data flow among operators (Section 3.1): an operator consumes
// the streams named by In and, for Iterate, produces the stream named Out.
type OpDecl struct {
	Kind    OpKind
	Scope   ScopeFunc
	Block   BlockFunc
	Iterate IterateFunc
	Detect  DetectFunc
	GenFix  GenFixFunc
	In      []string
	Out     string
	// Hints, on a Detect, name its pipeline and carry its rule's
	// optimization hints.
	Hints DetectHints
}

// DetectHints name a Detect's pipeline and carry the optimization hints a
// declarative front end derives into it (see the Rule fields of the same
// names). A Detect declared without them plans as pipeline "job#k" with
// none.
type DetectHints struct {
	Name        string
	Symmetric   bool
	OrderConds  []join.Cond
	Unary       bool
	DetectBlock BlockDetectFunc

	// reads is the rule's declaration of the columns it reads (Rule.Reads);
	// only the Rule lowering sets it, so Job-API flows move whole tuples.
	reads []int
}

// Job is the UDF-facing specification API of Appendix A: users register
// input datasets under labels, then attach labeled operators in the order
// they want them to run.
type Job struct {
	// Name labels the job in diagnostics.
	Name string

	inputs map[string]*model.Relation // label -> dataset
	ops    []OpDecl
}

// NewJob creates an empty job.
func NewJob(name string) *Job {
	return &Job{Name: name, inputs: make(map[string]*model.Relation)}
}

// AddInput registers a dataset under one or more labels. Multiple labels on
// the same relation declare multiple logical data flows over it (the "S",
// "T" copies of Listing 3); the optimizer consolidates them back into
// shared scans.
func (j *Job) AddInput(rel *model.Relation, labels ...string) *Job {
	for _, l := range labels {
		j.inputs[l] = rel
	}
	return j
}

// AddScope attaches a Scope operator to the stream with the given label.
func (j *Job) AddScope(fn ScopeFunc, label string) *Job {
	j.ops = append(j.ops, OpDecl{Kind: OpScope, Scope: fn, In: []string{label}, Out: label})
	return j
}

// AddBlock attaches a Block operator to the stream with the given label.
func (j *Job) AddBlock(fn BlockFunc, label string) *Job {
	j.ops = append(j.ops, OpDecl{Kind: OpBlock, Block: fn, In: []string{label}, Out: label})
	return j
}

// AddIterate attaches an Iterate operator reading the streams named by in
// and producing the stream out. A nil fn lets the planner choose the
// enumeration (Section 3.2).
func (j *Job) AddIterate(fn IterateFunc, out string, in ...string) *Job {
	j.ops = append(j.ops, OpDecl{Kind: OpIterate, Iterate: fn, In: in, Out: out})
	return j
}

// AddDetect attaches a Detect operator to the stream with the given label,
// with its pipeline's name and hints when hints (at most one) are given.
func (j *Job) AddDetect(fn DetectFunc, label string, hints ...DetectHints) *Job {
	op := OpDecl{Kind: OpDetect, Detect: fn, In: []string{label}, Out: label}
	if len(hints) > 0 {
		op.Hints = hints[0]
	}
	j.ops = append(j.ops, op)
	return j
}

// AddGenFix attaches a GenFix operator to the violations of the Detect with
// the same label.
func (j *Job) AddGenFix(fn GenFixFunc, label string) *Job {
	j.ops = append(j.ops, OpDecl{Kind: OpGenFix, GenFix: fn, In: []string{label}, Out: label})
	return j
}

// validate performs the checks of Section 3.2: all labels resolve and at
// least one Detect exists.
func (j *Job) validate() error {
	if len(j.inputs) == 0 {
		return fmt.Errorf("core: job %q has no input dataset", j.Name)
	}
	produced := make(map[string]bool, len(j.inputs))
	for l := range j.inputs {
		produced[l] = true
	}
	hasDetect := false
	for _, op := range j.ops {
		switch op.Kind {
		case OpScope, OpBlock:
			if !produced[op.In[0]] {
				return fmt.Errorf("core: job %q: %s references undefined label %q", j.Name, op.Kind, op.In[0])
			}
		case OpIterate:
			for _, in := range op.In {
				if !produced[in] {
					return fmt.Errorf("core: job %q: Iterate references undefined label %q", j.Name, in)
				}
			}
			produced[op.Out] = true
		case OpDetect:
			if !produced[op.In[0]] {
				return fmt.Errorf("core: job %q: Detect references undefined label %q", j.Name, op.In[0])
			}
			hasDetect = true
		case OpGenFix:
			// matched to a Detect label below
		}
	}
	if !hasDetect {
		return fmt.Errorf("core: job %q has no Detect operator", j.Name)
	}
	for _, op := range j.ops {
		if op.Kind != OpGenFix {
			continue
		}
		found := false
		for _, d := range j.ops {
			if d.Kind == OpDetect && d.In[0] == op.In[0] {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("core: job %q: GenFix label %q has no matching Detect", j.Name, op.In[0])
		}
	}
	return nil
}
