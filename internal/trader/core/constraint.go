package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"cosm/internal/sidl"
)

// ErrConstraint is wrapped by all constraint parse errors.
var ErrConstraint = errors.New("trader: constraint syntax error")

// Constraint is a compiled matching predicate over offer properties,
// e.g.:
//
//	CarModel == FIAT_Uno && ChargePerDay < 85.0
//	(ChargeCurrency == USD || ChargeCurrency == DEM) && !Premium
//
// Identifiers name offer properties; comparisons support ==, !=, <, <=,
// >, >= on numbers and strings, equality on booleans and enum literals;
// predicates compose with &&, || and !. A bare identifier is a boolean
// property test. A comparison involving a property the offer lacks is
// false, so offers missing a constrained property never match. The empty
// constraint matches every offer.
type Constraint struct {
	src  string
	root cexpr
	// idx holds the index hints extracted from the top-level AND chain;
	// see hints.
	idx []indexHint
	// conj holds the top-level AND-chain conjuncts; the semantic
	// matcher grades offers that satisfy only some of them as
	// partial-attribute matches (see satisfied).
	conj []cexpr
}

// Compile parses a constraint expression. Compiling once and reusing the
// result is the fast path measured by the constraint-compile ablation.
func Compile(src string) (*Constraint, error) {
	trimmed := strings.TrimSpace(src)
	if trimmed == "" {
		return &Constraint{src: src}, nil
	}
	p := &cparser{src: trimmed}
	root, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("%w: trailing input %q", ErrConstraint, p.src[p.pos:])
	}
	return &Constraint{
		src:  src,
		root: root,
		idx:  collectHints(root, nil),
		conj: collectConjuncts(root, nil),
	}, nil
}

// MustCompile is Compile for statically known expressions.
func MustCompile(src string) *Constraint {
	c, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return c
}

// String returns the original expression text.
func (c *Constraint) String() string { return c.src }

// Match evaluates the constraint against a property set.
func (c *Constraint) Match(props map[string]sidl.Lit) bool {
	if c == nil || c.root == nil {
		return true
	}
	return c.root.eval(props)
}

// cval is an evaluated operand: a number, string, boolean or enum
// symbol, or "missing" when a referenced property is absent.
type cval struct {
	kind cvalKind
	num  float64
	str  string
	b    bool
}

type cvalKind uint8

const (
	cvMissing cvalKind = iota
	cvNum
	cvStr
	cvBool
	cvSym // enum literal, compared by name
)

func litVal(l sidl.Lit) cval {
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
		return cval{kind: cvSym, str: l.Enum}
	}
	return cval{}
}

// cexpr is a compiled constraint node.
type cexpr interface {
	eval(props map[string]sidl.Lit) bool
}

type andExpr struct{ l, r cexpr }
type orExpr struct{ l, r cexpr }
type notExpr struct{ e cexpr }

func (e andExpr) eval(p map[string]sidl.Lit) bool { return e.l.eval(p) && e.r.eval(p) }
func (e orExpr) eval(p map[string]sidl.Lit) bool  { return e.l.eval(p) || e.r.eval(p) }
func (e notExpr) eval(p map[string]sidl.Lit) bool { return !e.e.eval(p) }

// boolProp is a bare identifier: true iff the property exists, is a
// boolean, and is true.
type boolProp struct{ name string }

func (e boolProp) eval(p map[string]sidl.Lit) bool {
	l, ok := p[e.name]
	return ok && l.Kind == sidl.LitBool && l.Bool
}

// operand is a comparison side: a property reference or a literal.
type operand struct {
	isProp bool
	name   string // property name or enum symbol
	lit    cval   // literal value when !isProp
}

func (o operand) value(p map[string]sidl.Lit) cval {
	if !o.isProp {
		return o.lit
	}
	l, ok := p[o.name]
	if !ok {
		// An identifier that names no property acts as an enum symbol,
		// so "CarModel == FIAT_Uno" works without quoting.
		return cval{kind: cvSym, str: o.name}
	}
	return litVal(l)
}

type cmpExpr struct {
	op   string // "==", "!=", "<", "<=", ">", ">="
	l, r operand
}

func (e cmpExpr) eval(p map[string]sidl.Lit) bool {
	lv, rv := e.l.value(p), e.r.value(p)
	// A property reference that resolved to a symbol is a missing
	// property unless the other side is a symbol too.
	if lv.kind == cvMissing || rv.kind == cvMissing {
		return false
	}
	switch {
	case lv.kind == cvNum && rv.kind == cvNum:
		return cmpOrdered(e.op, lv.num, rv.num)
	case lv.kind == cvStr && rv.kind == cvStr:
		return cmpOrdered(e.op, lv.str, rv.str)
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
		// Mixed kinds never match (and never error: matching is a
		// filter, not a type checker).
		return false
	}
}

func cmpOrdered[T float64 | string](op string, a, b T) bool {
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

// collectConjuncts flattens the top-level AND chain into its conjunct
// expressions; anything under || or ! stays one opaque conjunct.
func collectConjuncts(e cexpr, out []cexpr) []cexpr {
	if and, ok := e.(andExpr); ok {
		return collectConjuncts(and.r, collectConjuncts(and.l, out))
	}
	return append(out, e)
}

// satisfied evaluates each top-level conjunct independently and reports
// how many hold. total is 0 for the empty constraint (which every offer
// satisfies fully); sat == total iff Match would return true.
func (c *Constraint) satisfied(props map[string]sidl.Lit) (sat, total int) {
	if c == nil || c.root == nil {
		return 0, 0
	}
	for _, e := range c.conj {
		if e.eval(props) {
			sat++
		}
	}
	return sat, len(c.conj)
}

// indexHint is one leaf predicate of a constraint's top-level AND chain
// that an attribute index can answer: "prop op val". Every hint is a
// necessary condition for the whole constraint, so an index lookup on
// any one of them yields a superset of the matching offers.
type indexHint struct {
	prop string
	op   string // "==", "<", "<=", ">", ">="
	val  cval
	// rhsProp is set when the value side is syntactically an identifier.
	// Such an identifier resolves to an enum symbol only on offers that
	// lack a property of that name (see operand.value), so the hint is
	// only usable against a snapshot where no offer defines it.
	rhsProp string
}

// hints returns the constraint's index hints (nil for the empty
// constraint and for shapes the planner cannot use).
func (c *Constraint) hints() []indexHint {
	if c == nil {
		return nil
	}
	return c.idx
}

// collectHints walks the top-level AND chain only: predicates under ||
// or ! are not individually necessary, so they yield no hints.
func collectHints(e cexpr, out []indexHint) []indexHint {
	switch n := e.(type) {
	case andExpr:
		return collectHints(n.r, collectHints(n.l, out))
	case boolProp:
		// A bare identifier matches exactly the offers carrying the
		// boolean value true under that name.
		return append(out, indexHint{prop: n.name, op: "==", val: cval{kind: cvBool, b: true}})
	case cmpExpr:
		switch {
		case n.l.isProp && !n.r.isProp:
			return appendCmpHint(out, n.l.name, n.op, n.r.lit, "")
		case !n.l.isProp && n.r.isProp:
			return appendCmpHint(out, n.r.name, flipCmp(n.op), n.l.lit, "")
		case n.l.isProp && n.r.isProp && n.op == "==":
			// "CarModel == FIAT_Uno": either identifier may be an enum
			// symbol in disguise. Record both directions, each guarded
			// by the identifier that must not name a stored property.
			return append(out,
				indexHint{prop: n.l.name, op: "==", val: cval{kind: cvSym, str: n.r.name}, rhsProp: n.r.name},
				indexHint{prop: n.r.name, op: "==", val: cval{kind: cvSym, str: n.l.name}, rhsProp: n.l.name})
		}
	}
	return out
}

func appendCmpHint(out []indexHint, prop, op string, val cval, guard string) []indexHint {
	switch op {
	case "==", "<", "<=", ">", ">=":
		return append(out, indexHint{prop: prop, op: op, val: val, rhsProp: guard})
	}
	return out // != excludes almost nothing; not worth an index pass
}

// flipCmp mirrors an operator across swapped operands: "80 < P" means
// "P > 80".
func flipCmp(op string) string {
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

// key renders a non-numeric value as an equality-index key (numbers are
// indexed by value, see numIndex). Kinds are tagged so a string never
// collides with an enum symbol of the same spelling (mixed kinds never
// compare equal at eval time either).
func (v cval) key() (string, bool) {
	switch v.kind {
	case cvStr:
		return "s:" + v.str, true
	case cvBool:
		if v.b {
			return "b:1", true
		}
		return "b:0", true
	case cvSym:
		return "y:" + v.str, true
	}
	return "", false
}

// maxConstraintDepth bounds expression nesting so adversarial
// constraints cannot exhaust the parser's stack.
const maxConstraintDepth = 64

// cparser is a recursive-descent parser for the constraint grammar.
type cparser struct {
	src   string
	pos   int
	depth int
}

func (p *cparser) errorf(format string, args ...any) error {
	return fmt.Errorf("%w: at %d: %s", ErrConstraint, p.pos, fmt.Sprintf(format, args...))
}

func (p *cparser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' || p.src[p.pos] == '\n' || p.src[p.pos] == '\r') {
		p.pos++
	}
}

func (p *cparser) peek(s string) bool {
	p.skipSpace()
	return strings.HasPrefix(p.src[p.pos:], s)
}

func (p *cparser) accept(s string) bool {
	if p.peek(s) {
		p.pos += len(s)
		return true
	}
	return false
}

func (p *cparser) parseOr() (cexpr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept("||") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = orExpr{l: l, r: r}
	}
	return l, nil
}

func (p *cparser) parseAnd() (cexpr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.accept("&&") {
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = andExpr{l: l, r: r}
	}
	return l, nil
}

func (p *cparser) parseUnary() (cexpr, error) {
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
		return notExpr{e: e}, nil
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

var cmpOps = []string{"==", "!=", "<=", ">=", "<", ">"}

func (p *cparser) parseComparison() (cexpr, error) {
	l, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	for _, op := range cmpOps {
		if p.accept(op) {
			r, err := p.parseOperand()
			if err != nil {
				return nil, err
			}
			return cmpExpr{op: op, l: l, r: r}, nil
		}
	}
	// No comparison operator: a bare boolean property.
	if !l.isProp {
		return nil, p.errorf("literal %v cannot stand alone", l.lit)
	}
	return boolProp{name: l.name}, nil
}

func (p *cparser) parseOperand() (operand, error) {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return operand{}, p.errorf("expected operand")
	}
	c := p.src[p.pos]
	switch {
	case c == '"':
		start := p.pos + 1
		end := strings.IndexByte(p.src[start:], '"')
		if end < 0 {
			return operand{}, p.errorf("unterminated string")
		}
		p.pos = start + end + 1
		return operand{lit: cval{kind: cvStr, str: p.src[start : start+end]}}, nil
	case c >= '0' && c <= '9' || c == '-' || c == '+' || c == '.':
		start := p.pos
		p.pos++
		for p.pos < len(p.src) && (isNumChar(p.src[p.pos])) {
			p.pos++
		}
		f, err := strconv.ParseFloat(p.src[start:p.pos], 64)
		if err != nil {
			return operand{}, p.errorf("bad number %q", p.src[start:p.pos])
		}
		return operand{lit: cval{kind: cvNum, num: f}}, nil
	case c == '_' || unicode.IsLetter(rune(c)):
		start := p.pos
		for p.pos < len(p.src) && isIdentChar(p.src[p.pos]) {
			p.pos++
		}
		word := p.src[start:p.pos]
		switch word {
		case "TRUE", "true":
			return operand{lit: cval{kind: cvBool, b: true}}, nil
		case "FALSE", "false":
			return operand{lit: cval{kind: cvBool, b: false}}, nil
		}
		return operand{isProp: true, name: word}, nil
	}
	return operand{}, p.errorf("unexpected character %q", c)
}

func isNumChar(c byte) bool {
	return c >= '0' && c <= '9' || c == '.' || c == 'e' || c == 'E' || c == '-' || c == '+'
}

func isIdentChar(c byte) bool {
	return c == '_' || c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}
