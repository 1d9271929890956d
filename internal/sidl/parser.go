package sidl

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"cosm/internal/fsm"
)

// ErrSyntax is wrapped by all parse errors.
var ErrSyntax = errors.New("sidl: syntax error")

// Names of the distinguished COSM extension modules embedded in the IDL
// module structure (section 4.1).
const (
	ModOperations   = "COSM_Operations"
	ModTraderExport = "COSM_TraderExport"
	ModFSM          = "COSM_FSM"
	ModUI           = "COSM_UI"
)

// Parse parses SIDL source text — one top-level IDL module — into a SID
// and validates it. Embedded modules with unrecognised names are skipped
// and preserved verbatim, which is the mechanism that keeps extended
// SIDs processable by base-level components (Fig. 2 and section 4.1).
func Parse(src string) (*SID, error) {
	p := &parser{lx: newLexer(src), src: src}
	if err := p.advance(); err != nil {
		return nil, err
	}
	sid, err := p.parseTopModule()
	if err != nil {
		return nil, err
	}
	if err := p.expectEOF(); err != nil {
		return nil, err
	}
	if err := sid.Validate(); err != nil {
		return nil, err
	}
	return sid, nil
}

// maxTypeDepth bounds type-constructor nesting (sequence<sequence<...)
// so adversarial descriptions cannot exhaust the parser's stack.
const maxTypeDepth = 64

type parser struct {
	lx    *lexer
	src   string
	tok   token
	depth int
}

func (p *parser) advance() error {
	t, err := p.lx.next()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrSyntax, err)
	}
	p.tok = t
	return nil
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("%w: line %d: %s", ErrSyntax, p.tok.line, fmt.Sprintf(format, args...))
}

func (p *parser) expectIdent(what string) (token, error) {
	if p.tok.kind != tokIdent {
		return token{}, p.errorf("expected %s, got %q", what, p.tok.text)
	}
	t := p.tok
	return t, p.advance()
}

func (p *parser) expectKeyword(kw string) error {
	if p.tok.kind != tokIdent || p.tok.text != kw {
		return p.errorf("expected %q, got %q", kw, p.tok.text)
	}
	return p.advance()
}

func (p *parser) expectPunct(ch string) error {
	if p.tok.kind != tokPunct || p.tok.text != ch {
		return p.errorf("expected %q, got %q", ch, p.tok.text)
	}
	return p.advance()
}

func (p *parser) isPunct(ch string) bool {
	return p.tok.kind == tokPunct && p.tok.text == ch
}

func (p *parser) isKeyword(kw string) bool {
	return p.tok.kind == tokIdent && p.tok.text == kw
}

func (p *parser) expectEOF() error {
	if p.tok.kind != tokEOF {
		return p.errorf("unexpected trailing input %q", p.tok.text)
	}
	return nil
}

// optSemi consumes an optional trailing semicolon (after "}").
func (p *parser) optSemi() error {
	if p.isPunct(";") {
		return p.advance()
	}
	return nil
}

func (p *parser) parseTopModule() (*SID, error) {
	doc := p.tok.doc
	if err := p.expectKeyword("module"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent("module name")
	if err != nil {
		return nil, err
	}
	sid := &SID{ServiceName: name.text, Doc: doc}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	scope := map[string]*Type{}
	for !p.isPunct("}") {
		if p.tok.kind == tokEOF {
			return nil, p.errorf("unexpected end of input in module %s", sid.ServiceName)
		}
		if err := p.parseDecl(sid, scope); err != nil {
			return nil, err
		}
	}
	if err := p.advance(); err != nil { // consume "}"
		return nil, err
	}
	if err := p.optSemi(); err != nil {
		return nil, err
	}
	return sid, nil
}

func (p *parser) parseDecl(sid *SID, scope map[string]*Type) error {
	if p.tok.kind != tokIdent {
		return p.errorf("expected declaration, got %q", p.tok.text)
	}
	switch p.tok.text {
	case "typedef":
		return p.parseTypedef(sid, scope)
	case "enum":
		return p.parseEnumDecl(sid, scope)
	case "struct":
		return p.parseStructDecl(sid, scope)
	case "const":
		c, err := p.parseConst(scope)
		if err != nil {
			return err
		}
		sid.Consts = append(sid.Consts, c)
		return nil
	case "interface":
		return p.parseInterface(sid, scope)
	case "module":
		return p.parseSubModule(sid, scope)
	default:
		return p.errorf("unexpected declaration keyword %q", p.tok.text)
	}
}

func (p *parser) declareType(sid *SID, scope map[string]*Type, t *Type) error {
	if _, dup := scope[t.Name]; dup {
		return p.errorf("duplicate type name %q", t.Name)
	}
	scope[t.Name] = t
	sid.Types = append(sid.Types, t)
	return nil
}

// parseTypedef handles "typedef <typespec> Name;" including anonymous
// enum/struct bodies in the typespec position.
func (p *parser) parseTypedef(sid *SID, scope map[string]*Type) error {
	if err := p.advance(); err != nil { // consume "typedef"
		return err
	}
	t, err := p.parseTypeSpec(scope)
	if err != nil {
		return err
	}
	name, err := p.expectIdent("typedef name")
	if err != nil {
		return err
	}
	if err := p.expectPunct(";"); err != nil {
		return err
	}
	// A typedef introduces a new named type with the same structure.
	named := t.Clone()
	named.Name = name.text
	return p.declareType(sid, scope, named)
}

func (p *parser) parseEnumDecl(sid *SID, scope map[string]*Type) error {
	if err := p.advance(); err != nil { // consume "enum"
		return err
	}
	name, err := p.expectIdent("enum name")
	if err != nil {
		return err
	}
	t, err := p.parseEnumBody(name.text)
	if err != nil {
		return err
	}
	if err := p.expectPunct(";"); err != nil {
		return err
	}
	return p.declareType(sid, scope, t)
}

func (p *parser) parseEnumBody(name string) (*Type, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	t := &Type{Kind: Enum, Name: name}
	seen := map[string]bool{}
	for {
		lit, err := p.expectIdent("enum literal")
		if err != nil {
			return nil, err
		}
		if seen[lit.text] {
			return nil, p.errorf("duplicate enum literal %q", lit.text)
		}
		seen[lit.text] = true
		t.Literals = append(t.Literals, lit.text)
		if p.isPunct(",") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	if err := p.expectPunct("}"); err != nil {
		return nil, err
	}
	return t, nil
}

func (p *parser) parseStructDecl(sid *SID, scope map[string]*Type) error {
	if err := p.advance(); err != nil { // consume "struct"
		return err
	}
	name, err := p.expectIdent("struct name")
	if err != nil {
		return err
	}
	t, err := p.parseStructBody(name.text, scope)
	if err != nil {
		return err
	}
	if err := p.expectPunct(";"); err != nil {
		return err
	}
	return p.declareType(sid, scope, t)
}

func (p *parser) parseStructBody(name string, scope map[string]*Type) (*Type, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	t := &Type{Kind: Struct, Name: name}
	seen := map[string]bool{}
	for !p.isPunct("}") {
		ft, err := p.parseTypeSpec(scope)
		if err != nil {
			return nil, err
		}
		fn, err := p.expectIdent("field name")
		if err != nil {
			return nil, err
		}
		if seen[fn.text] {
			return nil, p.errorf("duplicate field %q in struct %s", fn.text, name)
		}
		seen[fn.text] = true
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		t.Fields = append(t.Fields, Field{Name: fn.text, Type: ft})
	}
	if err := p.advance(); err != nil { // consume "}"
		return nil, err
	}
	if len(t.Fields) == 0 {
		return nil, p.errorf("struct %s has no fields", name)
	}
	return t, nil
}

// parseTypeSpec parses a type reference in declaration position.
func (p *parser) parseTypeSpec(scope map[string]*Type) (*Type, error) {
	if p.depth >= maxTypeDepth {
		return nil, p.errorf("type nesting exceeds %d levels", maxTypeDepth)
	}
	p.depth++
	defer func() { p.depth-- }()
	if p.tok.kind != tokIdent {
		return nil, p.errorf("expected type, got %q", p.tok.text)
	}
	word := p.tok.text
	switch word {
	case "void":
		return nil, p.errorf("void is only an operation's result type")
	case "boolean":
		return Basic(Bool), p.advance()
	case "octet":
		return Basic(Octet), p.advance()
	case "short":
		return Basic(Int16), p.advance()
	case "float":
		return Basic(Float32), p.advance()
	case "double":
		return Basic(Float64), p.advance()
	case "string":
		return Basic(String), p.advance()
	case "Object":
		return Basic(SvcRef), p.advance()
	case "long":
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.isKeyword("long") {
			return Basic(Int64), p.advance()
		}
		return Basic(Int32), nil
	case "unsigned":
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("long"); err != nil {
			return nil, err
		}
		if p.isKeyword("long") {
			return Basic(UInt64), p.advance()
		}
		return Basic(UInt32), nil
	case "sequence":
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectPunct("<"); err != nil {
			return nil, err
		}
		elem, err := p.parseTypeSpec(scope)
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(">"); err != nil {
			return nil, err
		}
		return SequenceOf(elem), nil
	case "enum":
		if err := p.advance(); err != nil {
			return nil, err
		}
		return p.parseEnumBody("")
	case "struct":
		if err := p.advance(); err != nil {
			return nil, err
		}
		return p.parseStructBody("", scope)
	default:
		t, ok := scope[word]
		if !ok {
			return nil, p.errorf("unknown type %q (types must be declared before use)", word)
		}
		return t, p.advance()
	}
}

func (p *parser) parseConst(scope map[string]*Type) (Const, error) {
	if err := p.advance(); err != nil { // consume "const"
		return Const{}, err
	}
	t, err := p.parseTypeSpec(scope)
	if err != nil {
		return Const{}, err
	}
	name, err := p.expectIdent("const name")
	if err != nil {
		return Const{}, err
	}
	if err := p.expectPunct("="); err != nil {
		return Const{}, err
	}
	lit, err := p.parseLiteral(t)
	if err != nil {
		return Const{}, err
	}
	if err := p.expectPunct(";"); err != nil {
		return Const{}, err
	}
	return Const{Name: name.text, Type: t, Value: lit}, nil
}

// parseLiteral parses a literal and checks it against the declared type.
func (p *parser) parseLiteral(t *Type) (Lit, error) {
	tok := p.tok
	switch tok.kind {
	case tokInt:
		v, err := strconv.ParseInt(tok.text, 10, 64)
		if err != nil {
			return Lit{}, p.errorf("bad integer literal %q: %v", tok.text, err)
		}
		if err := p.advance(); err != nil {
			return Lit{}, err
		}
		switch t.Kind {
		case Int16, Int32, Int64, UInt32, UInt64, Octet:
			return IntLit(v), nil
		case Float32, Float64:
			return FloatLit(float64(v)), nil
		}
		return Lit{}, p.errorf("integer literal for non-numeric type %s", t)
	case tokFloat:
		v, err := strconv.ParseFloat(tok.text, 64)
		if err != nil {
			return Lit{}, p.errorf("bad float literal %q: %v", tok.text, err)
		}
		if t.Kind != Float32 && t.Kind != Float64 {
			return Lit{}, p.errorf("float literal for non-float type %s", t)
		}
		return FloatLit(v), p.advance()
	case tokString:
		if t.Kind != String {
			return Lit{}, p.errorf("string literal for non-string type %s", t)
		}
		return StringLit(tok.str), p.advance()
	case tokIdent:
		switch tok.text {
		case "TRUE", "FALSE":
			if t.Kind != Bool {
				return Lit{}, p.errorf("boolean literal for non-boolean type %s", t)
			}
			return BoolLit(tok.text == "TRUE"), p.advance()
		default:
			if t.Kind != Enum {
				return Lit{}, p.errorf("identifier literal %q for non-enum type %s", tok.text, t)
			}
			if _, ok := t.Ordinal(tok.text); !ok {
				return Lit{}, p.errorf("literal %q is not a member of enum %s", tok.text, t.Name)
			}
			return EnumLit(tok.text), p.advance()
		}
	}
	return Lit{}, p.errorf("expected literal, got %q", tok.text)
}

func (p *parser) parseInterface(sid *SID, scope map[string]*Type) error {
	if err := p.advance(); err != nil { // consume "interface"
		return err
	}
	if _, err := p.expectIdent("interface name"); err != nil {
		return err
	}
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	for !p.isPunct("}") {
		doc := p.tok.doc
		// The one position void may take; parseTypeSpec refuses it.
		result := Basic(Void)
		var err error
		if p.isKeyword("void") {
			err = p.advance()
		} else {
			result, err = p.parseTypeSpec(scope)
		}
		if err != nil {
			return err
		}
		opName, err := p.expectIdent("operation name")
		if err != nil {
			return err
		}
		op := Op{Name: opName.text, Result: result, Doc: doc}
		if err := p.expectPunct("("); err != nil {
			return err
		}
		for !p.isPunct(")") {
			if len(op.Params) > 0 {
				if err := p.expectPunct(","); err != nil {
					return err
				}
			}
			dir := In
			switch {
			case p.isKeyword("in"):
				if err := p.advance(); err != nil {
					return err
				}
			case p.isKeyword("out"):
				dir = Out
				if err := p.advance(); err != nil {
					return err
				}
			case p.isKeyword("inout"):
				dir = InOut
				if err := p.advance(); err != nil {
					return err
				}
			}
			pt, err := p.parseTypeSpec(scope)
			if err != nil {
				return err
			}
			pn, err := p.expectIdent("parameter name")
			if err != nil {
				return err
			}
			op.Params = append(op.Params, Param{Name: pn.text, Dir: dir, Type: pt})
		}
		if err := p.advance(); err != nil { // consume ")"
			return err
		}
		if err := p.expectPunct(";"); err != nil {
			return err
		}
		sid.Ops = append(sid.Ops, op)
	}
	if err := p.advance(); err != nil { // consume "}"
		return err
	}
	return p.optSemi()
}

func (p *parser) parseSubModule(sid *SID, scope map[string]*Type) error {
	if err := p.advance(); err != nil { // consume "module"
		return err
	}
	name, err := p.expectIdent("module name")
	if err != nil {
		return err
	}
	switch name.text {
	case ModTraderExport:
		return p.parseTraderExport(sid, scope)
	case ModFSM:
		return p.parseFSM(sid)
	case ModUI:
		return p.parseUI(sid)
	default:
		// Unknown module: skip it verbatim — the CORBA-compatibility
		// mechanism of section 4.1.
		body, err := p.skipBalanced()
		if err != nil {
			return err
		}
		sid.Unknown = append(sid.Unknown, RawModule{Name: name.text, Body: body})
		return p.optSemi()
	}
}

// skipBalanced consumes a balanced "{...}" block and returns the
// verbatim source between the outer braces.
func (p *parser) skipBalanced() (string, error) {
	if !p.isPunct("{") {
		return "", p.errorf("expected '{', got %q", p.tok.text)
	}
	start := p.tok.end
	depth := 1
	for depth > 0 {
		if err := p.advance(); err != nil {
			return "", err
		}
		switch {
		case p.tok.kind == tokEOF:
			return "", p.errorf("unterminated module body")
		case p.isPunct("{"):
			depth++
		case p.isPunct("}"):
			depth--
		}
	}
	body := p.src[start:p.tok.pos]
	return strings.TrimSpace(body), p.advance()
}

func (p *parser) parseTraderExport(sid *SID, scope map[string]*Type) error {
	if sid.Trader != nil {
		return p.errorf("duplicate %s module", ModTraderExport)
	}
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	te := &TraderExport{}
	for !p.isPunct("}") {
		if !p.isKeyword("const") {
			return p.errorf("%s may contain only const declarations, got %q", ModTraderExport, p.tok.text)
		}
		c, err := p.parseConst(scope)
		if err != nil {
			return err
		}
		switch c.Name {
		case "ServiceID":
			if c.Value.Kind != LitInt || c.Value.Int < 0 {
				return p.errorf("ServiceID must be a non-negative integer")
			}
			te.ServiceID = uint64(c.Value.Int)
		case "TOD":
			if c.Value.Kind != LitString {
				return p.errorf("TOD must be a string")
			}
			te.TypeOfService = c.Value.Str
		default:
			te.Properties = append(te.Properties, Property{Name: c.Name, Value: c.Value})
		}
	}
	if err := p.advance(); err != nil { // consume "}"
		return err
	}
	if te.TypeOfService == "" {
		return p.errorf("%s lacks the TOD (type of service) constant", ModTraderExport)
	}
	sid.Trader = te
	return p.optSemi()
}

// parseFSM parses the COSM_FSM module:
//
//	module COSM_FSM {
//	    initial INIT;
//	    transition INIT SelectCar SELECTED;
//	    transition SELECTED Commit INIT;
//	};
func (p *parser) parseFSM(sid *SID) error {
	if sid.FSM != nil {
		return p.errorf("duplicate %s module", ModFSM)
	}
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	spec := &fsm.Spec{}
	states := map[string]bool{}
	addState := func(s string) {
		if !states[s] {
			states[s] = true
			spec.States = append(spec.States, s)
		}
	}
	for !p.isPunct("}") {
		switch {
		case p.isKeyword("initial"):
			if err := p.advance(); err != nil {
				return err
			}
			st, err := p.expectIdent("initial state")
			if err != nil {
				return err
			}
			if spec.Initial != "" {
				return p.errorf("duplicate initial state declaration")
			}
			spec.Initial = st.text
			addState(st.text)
		case p.isKeyword("transition"):
			if err := p.advance(); err != nil {
				return err
			}
			from, err := p.expectIdent("source state")
			if err != nil {
				return err
			}
			op, err := p.expectIdent("operation")
			if err != nil {
				return err
			}
			to, err := p.expectIdent("target state")
			if err != nil {
				return err
			}
			addState(from.text)
			addState(to.text)
			spec.Transitions = append(spec.Transitions, fsm.Transition{From: from.text, Op: op.text, To: to.text})
		default:
			return p.errorf("expected 'initial' or 'transition' in %s, got %q", ModFSM, p.tok.text)
		}
		if err := p.expectPunct(";"); err != nil {
			return err
		}
	}
	if err := p.advance(); err != nil { // consume "}"
		return err
	}
	if spec.Initial == "" {
		return p.errorf("%s lacks an initial state", ModFSM)
	}
	sid.FSM = spec
	return p.optSemi()
}

// parseUI parses the COSM_UI module:
//
//	module COSM_UI {
//	    doc SelectCar "Choose a car model and booking date";
//	    widget SelectCar.selection.model choice;
//	};
func (p *parser) parseUI(sid *SID) error {
	if sid.UI != nil {
		return p.errorf("duplicate %s module", ModUI)
	}
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	ui := &UISpec{Docs: map[string]string{}, Widgets: map[string]string{}}
	for !p.isPunct("}") {
		switch {
		case p.isKeyword("doc"):
			if err := p.advance(); err != nil {
				return err
			}
			path, err := p.parsePath()
			if err != nil {
				return err
			}
			if p.tok.kind != tokString {
				return p.errorf("doc for %s requires a string literal", path)
			}
			ui.Docs[path] = p.tok.str
			if err := p.advance(); err != nil {
				return err
			}
		case p.isKeyword("widget"):
			if err := p.advance(); err != nil {
				return err
			}
			path, err := p.parsePath()
			if err != nil {
				return err
			}
			hint, err := p.expectIdent("widget hint")
			if err != nil {
				return err
			}
			ui.Widgets[path] = hint.text
		default:
			return p.errorf("expected 'doc' or 'widget' in %s, got %q", ModUI, p.tok.text)
		}
		if err := p.expectPunct(";"); err != nil {
			return err
		}
	}
	if err := p.advance(); err != nil { // consume "}"
		return err
	}
	sid.UI = ui
	return p.optSemi()
}

func (p *parser) parsePath() (string, error) {
	var b strings.Builder
	seg, err := p.expectIdent("path segment")
	if err != nil {
		return "", err
	}
	b.WriteString(seg.text)
	for p.isPunct(".") {
		if err := p.advance(); err != nil {
			return "", err
		}
		seg, err := p.expectIdent("path segment")
		if err != nil {
			return "", err
		}
		b.WriteByte('.')
		b.WriteString(seg.text)
	}
	return b.String(), nil
}
