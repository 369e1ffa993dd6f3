package rules

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"bigdansing/internal/core"
	"bigdansing/internal/join"
	"bigdansing/internal/model"
)

// Pred is one predicate of a denial constraint, in the normal form
// t<LeftTuple>.LeftAttr Op (t<RightTuple>.RightAttr | Const).
type Pred struct {
	LeftTuple int // 1 or 2
	LeftAttr  string
	Op        model.Op
	// Right side: either another tuple's attribute or a constant.
	RightIsConst bool
	RightTuple   int
	RightAttr    string
	Const        model.Value
}

// CrossTuple reports whether the predicate relates the two tuples.
func (p Pred) CrossTuple() bool { return !p.RightIsConst && p.LeftTuple != p.RightTuple }

// String renders the predicate.
func (p Pred) String() string {
	if p.RightIsConst {
		return fmt.Sprintf("t%d.%s %s %q", p.LeftTuple, p.LeftAttr, p.Op, p.Const.String())
	}
	return fmt.Sprintf("t%d.%s %s t%d.%s", p.LeftTuple, p.LeftAttr, p.Op, p.RightTuple, p.RightAttr)
}

// DC is a denial constraint ∀t1,t2 ¬(p1 ∧ p2 ∧ ...): any pair satisfying
// every predicate is a violation. A DC whose predicates all reference t1 is
// unary (a single-tuple check).
type DC struct {
	ID    string
	Preds []Pred
}

// ParseDC parses the ASCII notation used throughout the paper's examples,
// e.g. "t1.salary > t2.salary & t1.rate < t2.rate" or
// "t1.city = t2.city & t1.st != t2.st" or constants:
// "t1.role = 'M' & t1.city != 'NYC'". Predicates are separated by '&'.
func ParseDC(id, spec string) (*DC, error) {
	dc := &DC{ID: id}
	for _, raw := range strings.Split(spec, "&") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		p, err := parsePred(raw)
		if err != nil {
			return nil, fmt.Errorf("rules: DC %s: %w", id, err)
		}
		dc.Preds = append(dc.Preds, p)
	}
	if len(dc.Preds) == 0 {
		return nil, fmt.Errorf("rules: DC %s: no predicates in %q", id, spec)
	}
	return dc, nil
}

// parsePred parses "t1.attr op rhs".
func parsePred(s string) (Pred, error) {
	// Find the operator: try two-char ops first.
	var op model.Op
	var opIdx, opLen int = -1, 0
	for _, cand := range []string{"!=", "<>", "<=", ">=", "==", "=", "<", ">"} {
		if i := strings.Index(s, cand); i >= 0 {
			parsed, err := model.ParseOp(cand)
			if err != nil {
				continue
			}
			op, opIdx, opLen = parsed, i, len(cand)
			break
		}
	}
	if opIdx < 0 {
		return Pred{}, fmt.Errorf("no operator in predicate %q", s)
	}
	left := strings.TrimSpace(s[:opIdx])
	right := strings.TrimSpace(s[opIdx+opLen:])

	lt, lattr, err := parseRef(left)
	if err != nil {
		return Pred{}, err
	}
	p := Pred{LeftTuple: lt, LeftAttr: lattr, Op: op}
	if rt, rattr, err := parseRef(right); err == nil {
		p.RightTuple, p.RightAttr = rt, rattr
		return p, nil
	}
	c, err := parseConst(right)
	if err != nil {
		return Pred{}, fmt.Errorf("right side %q is neither a tuple reference nor a constant", right)
	}
	p.RightIsConst = true
	p.Const = c
	return p, nil
}

// parseRef parses "t1.attr" / "t2.attr".
func parseRef(s string) (int, string, error) {
	tup, attr, ok := strings.Cut(s, ".")
	if !ok {
		return 0, "", fmt.Errorf("not a tuple reference: %q", s)
	}
	tup = strings.ToLower(strings.TrimSpace(tup))
	attr = strings.TrimSpace(attr)
	switch tup {
	case "t1":
		return 1, attr, nil
	case "t2":
		return 2, attr, nil
	default:
		return 0, "", fmt.Errorf("unknown tuple variable %q", tup)
	}
}

// parseConst parses 'str', "str", or a number.
func parseConst(s string) (model.Value, error) {
	if len(s) >= 2 && (s[0] == '\'' || s[0] == '"') && s[len(s)-1] == s[0] {
		return model.S(s[1 : len(s)-1]), nil
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return model.I(i), nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return model.F(f), nil
	}
	return model.Value{}, fmt.Errorf("unparseable constant %q", s)
}

// String renders the DC.
func (dc *DC) String() string {
	parts := make([]string, len(dc.Preds))
	for i, p := range dc.Preds {
		parts[i] = p.String()
	}
	return fmt.Sprintf("%s: not(%s)", dc.ID, strings.Join(parts, " & "))
}

// Unary reports whether all predicates reference only t1.
func (dc *DC) Unary() bool {
	for _, p := range dc.Preds {
		if p.LeftTuple != 1 || (!p.RightIsConst && p.RightTuple != 1) {
			return false
		}
	}
	return true
}

// analyze classifies the predicates for enhancer selection.
type dcShape struct {
	eqJoins  []Pred // t1.A = t2.B
	ordering []Pred // t1.A op t2.B with op in {<,>,<=,>=}
	others   []Pred // cross-tuple != and anything else cross-tuple
	constant []Pred // single-tuple predicates (constants or same-tuple refs)
}

func (dc *DC) analyze() dcShape {
	var s dcShape
	for _, p := range dc.Preds {
		switch {
		case !p.CrossTuple():
			s.constant = append(s.constant, p)
		case p.Op == model.OpEQ:
			s.eqJoins = append(s.eqJoins, p)
		case p.Op.IsOrdering():
			s.ordering = append(s.ordering, p)
		default:
			s.others = append(s.others, p)
		}
	}
	return s
}

// Symmetric reports whether detection is order-insensitive: every
// cross-tuple predicate uses a symmetric operator (=, !=) on the same
// attribute of both tuples, and single-tuple predicates come in mirrored
// pairs (or reference t1 only in a unary DC).
func (dc *DC) Symmetric() bool {
	if dc.Unary() {
		return true
	}
	for _, p := range dc.Preds {
		if !p.CrossTuple() {
			return false // a one-sided constant predicate breaks symmetry
		}
		if p.Op != model.OpEQ && p.Op != model.OpNEQ {
			return false
		}
		if !strings.EqualFold(p.LeftAttr, p.RightAttr) {
			return false
		}
	}
	return true
}

// Compile translates the DC into a rule with the strongest applicable
// enhancer (Section 4.2):
//
//   - equality predicates become the blocking key (Block, or Block plus
//     BlockRight when the two sides key different attributes);
//   - otherwise, if every cross-tuple predicate is an ordering comparison,
//     they become OCJoin conditions;
//   - otherwise detection falls back to (U)CrossProduct.
//
// Detect evaluates the remaining predicates; GenFix emits one possible fix
// per predicate — its negation — following Section 2.2's example.
func (dc *DC) Compile(schema *model.Schema) (*core.Rule, error) {
	// Resolve all attributes up front.
	res := make([]resolvedPred, len(dc.Preds))
	for i, p := range dc.Preds {
		r := resolvedPred{p: p, rCol: -1}
		c, ok := schema.Index(p.LeftAttr)
		if !ok {
			return nil, fmt.Errorf("rules: DC %s: unknown attribute %q", dc.ID, p.LeftAttr)
		}
		r.lCol = c
		if !p.RightIsConst {
			c, ok := schema.Index(p.RightAttr)
			if !ok {
				return nil, fmt.Errorf("rules: DC %s: unknown attribute %q", dc.ID, p.RightAttr)
			}
			r.rCol = c
		}
		res[i] = r
	}
	slots := dcLayout(res)
	byPred := make(map[string]resolvedPred, len(res))
	for _, r := range res {
		byPred[r.p.String()] = r
	}
	ruleID := dc.ID
	shape := dc.analyze()

	// evalPred evaluates a predicate against an ordered pair (a=t1, b=t2).
	evalPred := func(r resolvedPred, a, b model.Tuple) bool {
		lv := a.Cell(r.lCol)
		if r.p.LeftTuple == 2 {
			lv = b.Cell(r.lCol)
		}
		var rv model.Value
		switch {
		case r.p.RightIsConst:
			rv = r.p.Const
		case r.p.RightTuple == 2:
			rv = b.Cell(r.rCol)
		default:
			rv = a.Cell(r.rCol)
		}
		return r.p.Op.Eval(lv, rv)
	}

	// cellsOf collects the referenced cells of a violating pair (a=t1,
	// b=t2; a unary DC passes its tuple twice) in the slots' layout. Pairs
	// never join a tuple with itself, so distinct slots are distinct cells.
	cellsOf := func(a, b model.Tuple) []model.Cell {
		cells := make([]model.Cell, len(slots))
		for i, sl := range slots {
			t := a
			if sl.side == 2 {
				t = b
			}
			cells[i] = model.NewCell(t.ID, sl.col, t.Cell(sl.col))
		}
		return cells
	}

	// The rule reads every column a predicate names, and nothing else.
	var reads []int
	for _, r := range res {
		reads = append(reads, r.lCol)
		if !r.p.RightIsConst {
			reads = append(reads, r.rCol)
		}
	}
	reads = distinct(reads)

	if dc.Unary() {
		return &core.Rule{
			ID:    ruleID,
			Unary: true,
			Reads: reads,
			Detect: func(it core.Item) []model.Violation {
				t := it.One()
				for _, r := range res {
					if !evalPred(r, t, t) {
						return nil
					}
				}
				return []model.Violation{model.NewViolation(ruleID, cellsOf(t, t)...)}
			},
			GenFix: func(v model.Violation) []model.Fix {
				return dcGenFix(res, v)
			},
		}, nil
	}

	// detect evaluates the conjunction on the ordered pair it receives.
	// Symmetric DCs are fed unique unordered pairs (either orientation
	// finds the violation); asymmetric DCs are fed both orientations.
	detect := func(it core.Item) []model.Violation {
		a, b := it.Left(), it.Right()
		for _, r := range res {
			if !evalPred(r, a, b) {
				return nil
			}
		}
		return []model.Violation{model.NewViolation(ruleID, cellsOf(a, b)...)}
	}

	genFix := func(v model.Violation) []model.Fix {
		return dcGenFix(res, v)
	}

	rule := &core.Rule{ID: ruleID, Detect: detect, GenFix: genFix, Symmetric: dc.Symmetric(), Reads: reads}

	switch {
	case len(shape.eqJoins) > 0:
		// Block on the equality attributes. If both sides key the same
		// columns, one Block suffices; otherwise CoBlock.
		leftCols := make([]int, len(shape.eqJoins))
		rightCols := make([]int, len(shape.eqJoins))
		same := true
		for i, p := range shape.eqJoins {
			r := byPred[p.String()]
			lc, rc := r.lCol, r.rCol
			if p.LeftTuple == 2 { // normalize: left side keys t1
				lc, rc = rc, lc
			}
			leftCols[i], rightCols[i] = lc, rc
			if lc != rc {
				same = false
			}
		}
		keyOf := func(cols []int) core.BlockFunc {
			return func(t model.Tuple) model.Value {
				if len(cols) == 1 {
					return t.Cell(cols[0])
				}
				return compositeKey(t, cols)
			}
		}
		rule.Block = keyOf(leftCols)
		if !same {
			rule.BlockRight = keyOf(rightCols)
		} else {
			// Same-key blocking groups each block on one key, which is what
			// the block kernel needs; a CoBlock pairs across two keys.
			rule.DetectBlock = dcBlockKernel(ruleID, res, cellsOf)
		}
	case len(shape.ordering) > 0 && len(shape.others) == 0:
		conds := make([]join.Cond, 0, len(shape.ordering))
		for _, p := range shape.ordering {
			r := byPred[p.String()]
			lc, rc, op := r.lCol, r.rCol, p.Op
			if p.LeftTuple == 2 { // normalize to t1 on the left
				lc, rc, op = rc, lc, op.Flip()
			}
			conds = append(conds, join.Cond{LeftCol: lc, Op: op, RightCol: rc})
		}
		rule.OrderConds = conds
	default:
		// No enhancer applies; (U)CrossProduct via the Symmetric hint.
	}
	return rule, nil
}

// resolvedPred is a predicate with its attribute names resolved to column
// indexes of the rule's schema, and its operands to their positions in a
// violation's cells (rPos is -1 for a constant right side).
type resolvedPred struct {
	p          Pred
	lCol, rCol int
	lPos, rPos int
}

// dcSlot is one cell of a DC violation: column col of tuple side (1 or 2).
type dcSlot struct{ side, col int }

// dcLayout lays out a DC violation's cells, once per rule: one slot per
// distinct (tuple side, column) the predicates read, in the order they read
// them. It records each predicate's operand positions in res, so GenFix
// finds a predicate's cells by the tuple it names, not by column alone.
func dcLayout(res []resolvedPred) []dcSlot {
	var slots []dcSlot
	slotOf := func(side, col int) int {
		sl := dcSlot{side, col}
		if i := slices.Index(slots, sl); i >= 0 {
			return i
		}
		slots = append(slots, sl)
		return len(slots) - 1
	}
	for i := range res {
		r := &res[i]
		r.lPos, r.rPos = slotOf(r.p.LeftTuple, r.lCol), -1
		if !r.p.RightIsConst {
			r.rPos = slotOf(r.p.RightTuple, r.rCol)
		}
	}
	return slots
}

// dcBlockKernel builds the block kernel of a same-key blocked DC: per
// block, every column any predicate reads is gathered into a flat vector
// once, then pair enumeration evaluates the conjunction against the vectors
// and materializes cells only for violating pairs. Predicate semantics
// (t1 = us[i], t2 = us[j]) and enumeration order match the per-pair Detect
// fed by PairsUnique/PairsOrdered exactly, and the kernel meets
// BlockDetectFunc's unordered contract.
func dcBlockKernel(ruleID string, res []resolvedPred, cellsOf func(a, b model.Tuple) []model.Cell) core.BlockDetectFunc {
	// Map each predicate's columns onto a dense vector index.
	var usedCols []int
	colOf := make(map[int]int)
	addCol := func(c int) int {
		if i, ok := colOf[c]; ok {
			return i
		}
		colOf[c] = len(usedCols)
		usedCols = append(usedCols, c)
		return len(usedCols) - 1
	}
	type vecPred struct {
		r          resolvedPred
		lVec, rVec int // rVec is -1 for constant right sides
	}
	vps := make([]vecPred, len(res))
	for i, r := range res {
		vp := vecPred{r: r, lVec: addCol(r.lCol), rVec: -1}
		if !r.p.RightIsConst {
			vp.rVec = addCol(r.rCol)
		}
		vps[i] = vp
	}

	return func(us []model.Tuple, ordered bool) ([]model.FixSet, int64) {
		n := len(us)
		if n < 2 {
			return nil, 0
		}
		buf := make([]model.Value, len(usedCols)*n) // one allocation for all vectors
		vecs := make([][]model.Value, len(usedCols))
		for x := range vecs {
			vecs[x] = buf[x*n : (x+1)*n]
		}
		for i, t := range us {
			for x, c := range usedCols {
				vecs[x][i] = t.Cell(c)
			}
		}
		var out []model.FixSet
		pairs := forEachPair(n, ordered, func(i, j int) {
			for _, vp := range vps {
				li := i
				if vp.r.p.LeftTuple == 2 {
					li = j
				}
				lv := vecs[vp.lVec][li]
				var rv model.Value
				switch {
				case vp.rVec < 0:
					rv = vp.r.p.Const
				case vp.r.p.RightTuple == 2:
					rv = vecs[vp.rVec][j]
				default:
					rv = vecs[vp.rVec][i]
				}
				if !vp.r.p.Op.Eval(lv, rv) {
					return
				}
			}
			out = append(out, model.FixSet{Violation: model.NewViolation(ruleID, cellsOf(us[i], us[j])...)})
		})
		return out, pairs
	}
}

// dcGenFix proposes, for each predicate, the update that negates it —
// expressed against the violation's captured cells, which dcLayout placed.
// A cross-cell fix whose two cells lie side by side in the violation shares
// them; any other pair is copied into a window of its own. The fixes are
// allocated once, a slot per predicate.
func dcGenFix(res []resolvedPred, v model.Violation) []model.Fix {
	fixes := make([]model.Fix, 0, len(res))
	for _, r := range res {
		neg := r.p.Op.Negate()
		switch {
		case r.lPos >= len(v.Cells) || r.rPos >= len(v.Cells):
			// Not a violation of this rule's layout.
		case r.rPos < 0:
			fixes = append(fixes, model.NewConstFix(v.Cells[r.lPos], neg, r.p.Const))
		case r.rPos == r.lPos+1:
			fixes = append(fixes, model.CellFixOf(v.Cells[r.lPos:r.rPos+1:r.rPos+1], neg))
		default:
			fixes = append(fixes, model.NewCellFix(v.Cells[r.lPos], neg, v.Cells[r.rPos]))
		}
	}
	return fixes
}
