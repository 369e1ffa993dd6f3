package rules

import (
	"fmt"

	"bigdansing/internal/core"
	"bigdansing/internal/model"
)

// Spec is one declarative rule in text form: what the service's create
// request carries and what the CLI's -fd/-dc/-cfd flags become.
type Spec struct {
	ID   string `json:"id"`
	Kind string `json:"kind"` // fd | dc | cfd
	Spec string `json:"spec"`
}

// CompileSpecs parses and compiles specs against schema, in order. A spec
// without an ID is named rule<i> after its 1-based position; a CFD may
// compile to two rules (see CFD.Compile).
func CompileSpecs(schema *model.Schema, specs []Spec) ([]*core.Rule, error) {
	var out []*core.Rule
	for i, rs := range specs {
		if rs.ID == "" {
			rs.ID = fmt.Sprintf("rule%d", i+1)
		}
		compiled, err := rs.compile(schema)
		if err != nil {
			return nil, err
		}
		out = append(out, compiled...)
	}
	return out, nil
}

func (rs Spec) compile(schema *model.Schema) ([]*core.Rule, error) {
	switch rs.Kind {
	case "fd":
		fd, err := ParseFD(rs.ID, rs.Spec)
		if err != nil {
			return nil, err
		}
		r, err := fd.Compile(schema)
		return []*core.Rule{r}, err
	case "dc":
		dc, err := ParseDC(rs.ID, rs.Spec)
		if err != nil {
			return nil, err
		}
		r, err := dc.Compile(schema)
		return []*core.Rule{r}, err
	case "cfd":
		cfd, err := ParseCFD(rs.ID, rs.Spec)
		if err != nil {
			return nil, err
		}
		return cfd.Compile(schema)
	}
	return nil, fmt.Errorf("rule %s: unknown kind %q (want fd, dc or cfd)", rs.ID, rs.Kind)
}
