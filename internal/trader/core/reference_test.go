package core

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"cosm/internal/sidl"
)

// The reference evaluator: the constraint compiler as a tree of boxed
// nodes, each evaluated through an interface call, with its own
// recursive-descent parser. The flat compiler in constraint.go replaced
// it; it stays here, independent of that code, as the oracle the
// differential tests compare Compile, Match, satisfied and hints with.

// refConstraint is a constraint compiled by refCompile.
type refConstraint struct {
	root refExpr
	idx  []refHint
	conj []refExpr
}

// refHint is one index hint: "prop op val", usable only against offers
// that define no property named rhsProp when rhsProp is set.
type refHint struct {
	prop    string
	op      string
	val     cval
	rhsProp string
}

// refCompile parses a constraint expression into a tree.
func refCompile(src string) (*refConstraint, error) {
	body := strings.TrimLeftFunc(src, unicode.IsSpace)
	trimmed := strings.TrimRightFunc(body, unicode.IsSpace)
	if trimmed == "" {
		return &refConstraint{}, nil
	}
	p := &refParser{src: trimmed, off: len(src) - len(body)}
	root, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, p.errorf("trailing input %q", p.src[p.pos:])
	}
	return &refConstraint{root: root, idx: refHints(root, nil), conj: refConjuncts(root, nil)}, nil
}

func (c *refConstraint) match(props map[string]sidl.Lit) bool {
	return c.root == nil || c.root.eval(props)
}

func (c *refConstraint) satisfied(props map[string]sidl.Lit) (sat, total int) {
	if c.root == nil {
		return 0, 0
	}
	for _, e := range c.conj {
		if e.eval(props) {
			sat++
		}
	}
	return sat, len(c.conj)
}

func refLitVal(l sidl.Lit) cval {
	switch l.Kind {
	case sidl.LitBool:
		return cval{kind: cvBool, b: l.Bool}
	case sidl.LitInt:
		return cval{kind: cvNum, num: float64(l.Int)}
	case sidl.LitFloat:
		return cval{kind: cvNum, num: l.Float}
	case sidl.LitString:
		return cval{kind: cvStr, str: l.Str}
	case sidl.LitEnum:
		return cval{kind: cvSym, str: l.Str}
	}
	return cval{}
}

type refExpr interface {
	eval(props map[string]sidl.Lit) bool
}

type refAnd struct{ l, r refExpr }
type refOr struct{ l, r refExpr }
type refNot struct{ e refExpr }

func (e refAnd) eval(p map[string]sidl.Lit) bool { return e.l.eval(p) && e.r.eval(p) }
func (e refOr) eval(p map[string]sidl.Lit) bool  { return e.l.eval(p) || e.r.eval(p) }
func (e refNot) eval(p map[string]sidl.Lit) bool { return !e.e.eval(p) }

// refBoolProp is a bare identifier: true iff the property exists, is a
// boolean, and is true.
type refBoolProp struct{ name string }

func (e refBoolProp) eval(p map[string]sidl.Lit) bool {
	l, ok := p[e.name]
	return ok && l.Kind == sidl.LitBool && l.Bool
}

// refOperand is a comparison side: a property reference or a literal.
type refOperand struct {
	isProp bool
	name   string
	lit    cval
}

func (o refOperand) value(p map[string]sidl.Lit) cval {
	if !o.isProp {
		return o.lit
	}
	l, ok := p[o.name]
	if !ok {
		return cval{kind: cvSym, str: o.name}
	}
	return refLitVal(l)
}

type refCmp struct {
	op   string
	l, r refOperand
}

func (e refCmp) eval(p map[string]sidl.Lit) bool {
	lv, rv := e.l.value(p), e.r.value(p)
	if lv.kind == cvMissing || rv.kind == cvMissing {
		return false
	}
	switch {
	case lv.kind == cvNum && rv.kind == cvNum:
		return refOrdered(e.op, lv.num, rv.num)
	case lv.kind == cvStr && rv.kind == cvStr:
		return refOrdered(e.op, lv.str, rv.str)
	case lv.kind == cvBool && rv.kind == cvBool:
		switch e.op {
		case "==":
			return lv.b == rv.b
		case "!=":
			return lv.b != rv.b
		}
		return false
	case lv.kind == cvSym && rv.kind == cvSym:
		switch e.op {
		case "==":
			return lv.str == rv.str
		case "!=":
			return lv.str != rv.str
		}
		return false
	default:
		return false
	}
}

func refOrdered[T float64 | string](op string, a, b T) bool {
	switch op {
	case "==":
		return a == b
	case "!=":
		return a != b
	case "<":
		return a < b
	case "<=":
		return a <= b
	case ">":
		return a > b
	case ">=":
		return a >= b
	}
	return false
}

func refConjuncts(e refExpr, out []refExpr) []refExpr {
	if and, ok := e.(refAnd); ok {
		return refConjuncts(and.r, refConjuncts(and.l, out))
	}
	return append(out, e)
}

func refHints(e refExpr, out []refHint) []refHint {
	switch n := e.(type) {
	case refAnd:
		return refHints(n.r, refHints(n.l, out))
	case refBoolProp:
		return append(out, refHint{prop: n.name, op: "==", val: cval{kind: cvBool, b: true}})
	case refCmp:
		switch {
		case n.l.isProp && !n.r.isProp:
			return refAppendCmpHint(out, n.l.name, n.op, n.r.lit)
		case !n.l.isProp && n.r.isProp:
			return refAppendCmpHint(out, n.r.name, refFlip(n.op), n.l.lit)
		case n.l.isProp && n.r.isProp && n.op == "==":
			return append(out,
				refHint{prop: n.l.name, op: "==", val: cval{kind: cvSym, str: n.r.name}, rhsProp: n.r.name},
				refHint{prop: n.r.name, op: "==", val: cval{kind: cvSym, str: n.l.name}, rhsProp: n.l.name})
		}
	}
	return out
}

func refAppendCmpHint(out []refHint, prop, op string, val cval) []refHint {
	switch op {
	case "==", "<", "<=", ">", ">=":
		return append(out, refHint{prop: prop, op: op, val: val})
	}
	return out
}

func refFlip(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}

// refParser is the reference recursive-descent parser.
type refParser struct {
	src   string
	off   int
	pos   int
	depth int
}

func (p *refParser) errorf(format string, args ...any) error {
	return &SyntaxError{Offset: p.off + p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *refParser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' || p.src[p.pos] == '\n' || p.src[p.pos] == '\r') {
		p.pos++
	}
}

func (p *refParser) accept(s string) bool {
	p.skipSpace()
	if strings.HasPrefix(p.src[p.pos:], s) {
		p.pos += len(s)
		return true
	}
	return false
}

func (p *refParser) parseOr() (refExpr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept("||") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = refOr{l: l, r: r}
	}
	return l, nil
}

func (p *refParser) parseAnd() (refExpr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.accept("&&") {
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = refAnd{l: l, r: r}
	}
	return l, nil
}

func (p *refParser) parseUnary() (refExpr, error) {
	if p.depth >= maxConstraintDepth {
		return nil, p.errorf("expression nesting exceeds %d levels", maxConstraintDepth)
	}
	p.depth++
	defer func() { p.depth-- }()
	if p.accept("!") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return refNot{e: e}, nil
	}
	if p.accept("(") {
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if !p.accept(")") {
			return nil, p.errorf("expected ')'")
		}
		return e, nil
	}
	return p.parseComparison()
}

func (p *refParser) parseComparison() (refExpr, error) {
	l, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"==", "!=", "<=", ">=", "<", ">"} {
		if p.accept(op) {
			r, err := p.parseOperand()
			if err != nil {
				return nil, err
			}
			return refCmp{op: op, l: l, r: r}, nil
		}
	}
	if !l.isProp {
		return nil, p.errorf("literal %v cannot stand alone", l.lit)
	}
	return refBoolProp{name: l.name}, nil
}

func (p *refParser) parseOperand() (refOperand, error) {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return refOperand{}, p.errorf("expected operand")
	}
	c := p.src[p.pos]
	switch {
	case c == '"':
		start := p.pos + 1
		end := strings.IndexByte(p.src[start:], '"')
		if end < 0 {
			return refOperand{}, p.errorf("unterminated string")
		}
		p.pos = start + end + 1
		return refOperand{lit: cval{kind: cvStr, str: p.src[start : start+end]}}, nil
	case c >= '0' && c <= '9' || c == '-' || c == '+' || c == '.':
		start := p.pos
		p.pos++
		for p.pos < len(p.src) && isNumChar(p.src[p.pos]) {
			p.pos++
		}
		f, err := strconv.ParseFloat(p.src[start:p.pos], 64)
		if err != nil {
			return refOperand{}, p.errorf("bad number %q", p.src[start:p.pos])
		}
		return refOperand{lit: cval{kind: cvNum, num: f}}, nil
	case c == '_' || unicode.IsLetter(rune(c)):
		start := p.pos
		for p.pos < len(p.src) && isIdentChar(p.src[p.pos]) {
			p.pos++
		}
		word := p.src[start:p.pos]
		switch word {
		case "TRUE", "true":
			return refOperand{lit: cval{kind: cvBool, b: true}}, nil
		case "FALSE", "false":
			return refOperand{lit: cval{kind: cvBool, b: false}}, nil
		}
		return refOperand{isProp: true, name: word}, nil
	}
	return refOperand{}, p.errorf("unexpected character %q", c)
}
