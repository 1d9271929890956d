package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"cosm/internal/sidl"
)

// ErrConstraint is wrapped by all constraint parse errors, each a
// *SyntaxError.
var ErrConstraint = errors.New("trader: constraint syntax error")

// SyntaxError is a constraint the parser refused: Offset is the byte
// offset into the expression where parsing stopped (0 ≤ Offset ≤ its
// length), and Msg says what it found there.
type SyntaxError struct {
	Offset int
	Msg    string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("%v: at %d: %s", ErrConstraint, e.Offset, e.Msg)
}

// Unwrap makes every syntax error match ErrConstraint under errors.Is.
func (e *SyntaxError) Unwrap() error { return ErrConstraint }

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
//
// A compiled constraint is one allocation: its nodes and its index
// hints share one array of cells, held in the same object as the
// Constraint for up to 16 cells — any constraint of up to four
// comparisons (see newConstraint).
type Constraint struct {
	src string
	// nodes is the expression in postfix order, its root last; empty
	// for the empty constraint. See cnode.
	nodes []cnode
	// idx holds the index hints of the top-level AND chain; see hints.
	idx []indexHint
}

// cop is a node's operator.
type cop uint8

const (
	opEq   cop = iota // ==
	opNe              // !=
	opLt              // <
	opLe              // <=
	opGt              // >
	opGe              // >=
	opAnd             // &&
	opOr              // ||
	opTrue            // a comparison of two literals, folded at compile time
)

// cnode is one node of a compiled constraint. A comparison is stored as
// "prop op val": prop names a property, and val is a literal or, when
// its kind is cvSym, an identifier — resolved like prop, to the offer's
// property of that name or, when it has none, to an enum symbol. (The
// parser yields no symbol literals, so cvSym always means an
// identifier.) A literal on the left is moved right by mirroring op;
// two literals fold to opTrue; a bare identifier P is "P == TRUE",
// which holds on exactly the offers where P is the boolean true.
//
// && and || take as right operand the subtree ending just before them
// and as left operand the one ending just before that; start is the
// index where a node's subtree begins. ! costs no node: neg negates the
// node's result, and notted marks that some ! applies to it, which
// makes it one opaque conjunct of the top-level AND chain.
type cnode struct {
	op     cop
	neg    bool
	notted bool
	start  int32
	prop   string
	val    cval
}

// Compile parses a constraint expression. Compiling once and reusing the
// result is the fast path measured by the constraint-compile ablation.
func Compile(src string) (*Constraint, error) {
	body := strings.TrimLeftFunc(src, unicode.IsSpace)
	trimmed := strings.TrimRightFunc(body, unicode.IsSpace)
	if trimmed == "" {
		return &Constraint{src: src}, nil
	}
	p := cparser{src: trimmed, off: len(src) - len(body)}
	if p.parseOr(); p.err == nil {
		if p.skipSpace(); p.pos != len(p.src) {
			p.fail("trailing input %q", p.src[p.pos:])
		}
	}
	if p.err != nil {
		return nil, p.err
	}
	cells := p.cells()
	return newConstraint(src, appendHints(cells, p.n-1, cells), p.n), nil
}

// newConstraint returns the Constraint of src whose first n cells are
// its nodes and the rest its hints. Up to 16 cells are allocated with
// the Constraint, in the smallest holder that fits them; more take an
// array of their own.
func newConstraint(src string, cells []cnode, n int) *Constraint {
	var c *Constraint
	var own []cnode
	switch k := len(cells); {
	case k <= 4:
		h := new(struct {
			c     Constraint
			cells [4]cnode
		})
		c, own = &h.c, h.cells[:k]
	case k <= 8:
		h := new(struct {
			c     Constraint
			cells [8]cnode
		})
		c, own = &h.c, h.cells[:k]
	case k <= 16:
		h := new(struct {
			c     Constraint
			cells [16]cnode
		})
		c, own = &h.c, h.cells[:k]
	default:
		c, own = new(Constraint), make([]cnode, k)
	}
	copy(own, cells)
	c.src, c.nodes, c.idx = src, own[:n:n], own[n:]
	return c
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
	if c == nil || len(c.nodes) == 0 {
		return true
	}
	return c.eval(len(c.nodes)-1, props)
}

// operands returns the left and right operand of the && or || node i.
func (c *Constraint) operands(i int) (l, r int) {
	return int(c.nodes[i-1].start) - 1, i - 1
}

// eval evaluates the subtree rooted at node i.
func (c *Constraint) eval(i int, p map[string]sidl.Lit) bool {
	n := &c.nodes[i]
	var ok bool
	switch n.op {
	case opAnd:
		l, r := c.operands(i)
		ok = c.eval(l, p) && c.eval(r, p)
	case opOr:
		l, r := c.operands(i)
		ok = c.eval(l, p) || c.eval(r, p)
	case opTrue:
		ok = true
	default:
		rv := n.val
		if rv.kind == cvSym {
			rv = propVal(p, rv.str)
		}
		ok = compareVals(n.op, propVal(p, n.prop), rv)
	}
	return ok != n.neg
}

// cval is an evaluated operand: a number, string, boolean or enum
// symbol, or "missing" when a referenced property is absent.
type cval struct {
	kind cvalKind
	b    bool
	num  float64
	str  string
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
		return cval{kind: cvSym, str: l.Str}
	}
	return cval{}
}

// propVal resolves an identifier against a property set. An identifier
// that names no property acts as an enum symbol, so "CarModel ==
// FIAT_Uno" works without quoting.
func propVal(p map[string]sidl.Lit, name string) cval {
	l, ok := p[name]
	if !ok {
		return cval{kind: cvSym, str: name}
	}
	return litVal(l)
}

// compareVals applies a comparison operator to two values.
func compareVals(op cop, lv, rv cval) bool {
	// A property reference that resolved to a symbol is a missing
	// property unless the other side is a symbol too.
	if lv.kind == cvMissing || rv.kind == cvMissing {
		return false
	}
	switch {
	case lv.kind == cvNum && rv.kind == cvNum:
		return cmpOrdered(op, lv.num, rv.num)
	case lv.kind == cvStr && rv.kind == cvStr:
		return cmpOrdered(op, lv.str, rv.str)
	case lv.kind == cvBool && rv.kind == cvBool:
		return cmpEqual(op, lv.b, rv.b)
	case lv.kind == cvSym && rv.kind == cvSym:
		return cmpEqual(op, lv.str, rv.str)
	default:
		// Mixed kinds never match (and never error: matching is a
		// filter, not a type checker).
		return false
	}
}

func cmpOrdered[T float64 | string](op cop, a, b T) bool {
	switch op {
	case opLt:
		return a < b
	case opLe:
		return a <= b
	case opGt:
		return a > b
	case opGe:
		return a >= b
	}
	return cmpEqual(op, a, b)
}

// cmpEqual is a comparison of values that have no order: only == and
// != hold.
func cmpEqual[T comparable](op cop, a, b T) bool {
	switch op {
	case opEq:
		return a == b
	case opNe:
		return a != b
	}
	return false
}

// satisfied evaluates each conjunct of the top-level AND chain
// independently and reports how many hold; anything under || or ! is
// one opaque conjunct. total is 0 for the empty constraint (which every
// offer satisfies fully); sat == total iff Match would return true.
func (c *Constraint) satisfied(props map[string]sidl.Lit) (sat, total int) {
	if c == nil || len(c.nodes) == 0 {
		return 0, 0
	}
	return c.conjuncts(len(c.nodes)-1, props)
}

// conjuncts is satisfied for the subtree rooted at node i.
func (c *Constraint) conjuncts(i int, p map[string]sidl.Lit) (sat, total int) {
	if n := &c.nodes[i]; n.op == opAnd && !n.notted {
		l, r := c.operands(i)
		ls, lt := c.conjuncts(l, p)
		rs, rt := c.conjuncts(r, p)
		return ls + rs, lt + rt
	}
	if c.eval(i, p) {
		return 1, 1
	}
	return 0, 1
}

// indexHint is one leaf predicate of a constraint's top-level AND chain
// that an attribute index can answer: "prop op val", op one of ==, <,
// <=, > and >=. Every hint is a necessary condition for the whole
// constraint, so an index lookup on any one of them yields a superset
// of the matching offers.
//
// A hint is stored as the comparison node it was read from. A val of
// kind cvSym is an identifier: it resolves to an enum symbol only on
// offers that lack a property of that name (see propVal), so such a
// hint is only usable against a snapshot where no offer defines it.
type indexHint = cnode

// hints returns the constraint's index hints (empty for the empty
// constraint and for shapes the planner cannot use).
func (c *Constraint) hints() []indexHint {
	if c == nil {
		return nil
	}
	return c.idx
}

// appendHints appends the hints of the top-level AND chain under node i
// to out: predicates under || or ! are not individually necessary, so
// they yield none, and neither does a != (it excludes almost nothing;
// not worth an index pass).
func appendHints(nodes []cnode, i int, out []indexHint) []indexHint {
	n := nodes[i]
	switch {
	case n.notted || n.op == opNe || n.op > opAnd:
	case n.op == opAnd:
		r := i - 1
		return appendHints(nodes, r, appendHints(nodes, int(nodes[r].start)-1, out))
	case n.val.kind != cvSym:
		return append(out, n)
	case n.op == opEq:
		// "CarModel == FIAT_Uno": either identifier may be an enum
		// symbol in disguise. Record both directions, each guarded by
		// the identifier that must not name a stored property.
		return append(out, n, cnode{op: opEq, prop: n.val.str, val: cval{kind: cvSym, str: n.prop}})
	}
	return out
}

// mirror mirrors an operator across swapped operands: "80 < P" means
// "P > 80".
func mirror(op cop) cop {
	switch op {
	case opLt:
		return opGt
	case opLe:
		return opGe
	case opGt:
		return opLt
	case opGe:
		return opLe
	}
	return op
}

// maxConstraintDepth bounds expression nesting so adversarial
// constraints cannot exhaust the parser's stack.
const maxConstraintDepth = 64

// cparser is a recursive-descent parser for the constraint grammar. It
// appends the nodes it reads to its cells, in postfix order, and the
// first syntax error stops the parse and stays in err.
//
// The cells are held in the parser itself while they fit in buf, so a
// parser on the stack allocates nothing for them: a slice of a stack
// array, passed around the parser's recursive cycle of methods, would
// move that array to the heap.
type cparser struct {
	src   string
	off   int // src's offset in the expression: the leading space Compile trimmed
	pos   int
	depth int
	err   error
	n     int       // cells parsed
	buf   [16]cnode // the cells, while they fit
	spill []cnode   // the cells, once they do not
}

// cells returns the nodes parsed so far.
func (p *cparser) cells() []cnode {
	if p.spill != nil {
		return p.spill
	}
	return p.buf[:p.n]
}

// push appends a node.
func (p *cparser) push(n cnode) {
	switch {
	case p.spill != nil:
		p.spill = append(p.spill, n)
	case p.n < len(p.buf):
		p.buf[p.n] = n
	default:
		p.spill = append(append(make([]cnode, 0, 2*len(p.buf)), p.buf[:]...), n)
	}
	p.n++
}

// fail records a syntax error at the current position.
func (p *cparser) fail(format string, args ...any) {
	p.err = &SyntaxError{Offset: p.off + p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *cparser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' || p.src[p.pos] == '\n' || p.src[p.pos] == '\r') {
		p.pos++
	}
}

func (p *cparser) accept(s string) bool {
	p.skipSpace()
	if strings.HasPrefix(p.src[p.pos:], s) {
		p.pos += len(s)
		return true
	}
	return false
}

func (p *cparser) parseOr() {
	start := int32(p.n)
	for p.parseAnd(); p.err == nil && p.accept("||"); {
		if p.parseAnd(); p.err == nil {
			p.push(cnode{op: opOr, start: start})
		}
	}
}

func (p *cparser) parseAnd() {
	start := int32(p.n)
	for p.parseUnary(); p.err == nil && p.accept("&&"); {
		if p.parseUnary(); p.err == nil {
			p.push(cnode{op: opAnd, start: start})
		}
	}
}

func (p *cparser) parseUnary() {
	if p.depth >= maxConstraintDepth {
		p.fail("expression nesting exceeds %d levels", maxConstraintDepth)
		return
	}
	p.depth++
	defer func() { p.depth-- }()
	switch {
	case p.accept("!"):
		if p.parseUnary(); p.err == nil {
			root := &p.cells()[p.n-1]
			root.neg, root.notted = !root.neg, true
		}
	case p.accept("("):
		if p.parseOr(); p.err == nil && !p.accept(")") {
			p.fail("expected ')'")
		}
	default:
		p.parseComparison()
	}
}

var cmpOps = [...]struct {
	tok string
	op  cop
}{{"==", opEq}, {"!=", opNe}, {"<=", opLe}, {">=", opGe}, {"<", opLt}, {">", opGt}}

// parseComparison parses a comparison or a bare identifier into one
// node; see cnode for its normal form.
func (p *cparser) parseComparison() {
	p.skipSpace()
	at := p.pos
	l := p.parseOperand()
	if p.err != nil {
		return
	}
	leaf := cnode{op: opEq, start: int32(p.n), prop: l.str, val: cval{kind: cvBool, b: true}}
	for _, c := range cmpOps {
		if !p.accept(c.tok) {
			continue
		}
		r := p.parseOperand()
		switch {
		case p.err != nil:
			return
		case l.kind == cvSym:
			leaf.op, leaf.val = c.op, r
		case r.kind == cvSym:
			leaf.op, leaf.prop, leaf.val = mirror(c.op), r.str, l
		default:
			leaf = cnode{op: opTrue, neg: !compareVals(c.op, l, r), start: leaf.start}
		}
		p.push(leaf)
		return
	}
	if l.kind != cvSym {
		p.fail("literal %s cannot stand alone", p.src[at:p.pos])
		return
	}
	p.push(leaf)
}

// parseOperand parses a literal, or an identifier as a cvSym.
func (p *cparser) parseOperand() cval {
	p.skipSpace()
	if p.pos >= len(p.src) {
		p.fail("expected operand")
		return cval{}
	}
	c := p.src[p.pos]
	switch {
	case c == '"':
		start := p.pos + 1
		end := strings.IndexByte(p.src[start:], '"')
		if end < 0 {
			p.fail("unterminated string")
			return cval{}
		}
		p.pos = start + end + 1
		return cval{kind: cvStr, str: p.src[start : start+end]}
	case c >= '0' && c <= '9' || c == '-' || c == '+' || c == '.':
		start := p.pos
		p.pos++
		for p.pos < len(p.src) && isNumChar(p.src[p.pos]) {
			p.pos++
		}
		f, err := strconv.ParseFloat(p.src[start:p.pos], 64)
		if err != nil {
			p.fail("bad number %q", p.src[start:p.pos])
		}
		return cval{kind: cvNum, num: f}
	case c == '_' || unicode.IsLetter(rune(c)):
		start := p.pos
		for p.pos < len(p.src) && isIdentChar(p.src[p.pos]) {
			p.pos++
		}
		switch word := p.src[start:p.pos]; word {
		case "TRUE", "true":
			return cval{kind: cvBool, b: true}
		case "FALSE", "false":
			return cval{kind: cvBool, b: false}
		default:
			return cval{kind: cvSym, str: word}
		}
	}
	p.fail("unexpected character %q", c)
	return cval{}
}

func isNumChar(c byte) bool {
	return c >= '0' && c <= '9' || c == '.' || c == 'e' || c == 'E' || c == '-' || c == '+'
}

func isIdentChar(c byte) bool {
	return c == '_' || c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}
