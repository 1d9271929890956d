package sidl

import (
	"errors"
	"fmt"
	"sort"
	"strconv"

	"cosm/internal/fsm"
)

// Dir is the direction of an operation parameter.
type Dir uint8

// Parameter directions, as in CORBA IDL.
const (
	In Dir = iota + 1
	Out
	InOut
)

// String returns the IDL spelling of the direction.
func (d Dir) String() string {
	switch d {
	case In:
		return "in"
	case Out:
		return "out"
	case InOut:
		return "inout"
	}
	return fmt.Sprintf("Dir(%d)", uint8(d))
}

// Param is one operation parameter.
type Param struct {
	Name string
	Dir  Dir
	Type *Type
}

// Op is one operation signature of the service's computational
// interface (the COSM_Operations interface of the embedded IDL module).
type Op struct {
	Name string
	// Result is the result type; Void for one-way style operations.
	Result *Type
	Params []Param
	// Doc is the natural-language annotation attached to the operation
	// (from a doc comment or a COSM_UI "doc" directive).
	Doc string
}

// Clone returns a deep copy of the operation.
func (o Op) Clone() Op {
	c := Op{Name: o.Name, Result: o.Result.Clone(), Doc: o.Doc}
	for _, p := range o.Params {
		c.Params = append(c.Params, Param{Name: p.Name, Dir: p.Dir, Type: p.Type.Clone()})
	}
	return c
}

// Equal reports structural equality of two signatures (docs ignored).
func (o Op) Equal(p Op) bool {
	if o.Name != p.Name || !o.Result.Equal(p.Result) || len(o.Params) != len(p.Params) {
		return false
	}
	for i := range o.Params {
		a, b := o.Params[i], p.Params[i]
		if a.Name != b.Name || a.Dir != b.Dir || !a.Type.Equal(b.Type) {
			return false
		}
	}
	return true
}

// LitKind enumerates literal (constant) value kinds.
type LitKind uint8

// Literal kinds for SIDL constants and trader property values.
const (
	LitBool LitKind = iota + 1
	LitInt
	LitFloat
	LitString
	LitEnum
)

// Lit is a literal constant value: the value of a "const" declaration or
// of a trader-export service property.
//
// Every stored offer holds one Lit per property, so the layout is part
// of the trader's memory budget: at 40 bytes a map of up to eight
// properties is one 480-byte group (640 at 56 bytes, with the enum
// identifier in a field of its own), and import_match's live heap reads
// ≈24 MB, not ≈29. TestLitLayout pins the size, so a new field is added
// on purpose.
type Lit struct {
	Kind  LitKind
	Bool  bool
	Int   int64
	Float float64
	// Str holds the text of a LitString and the identifier of a
	// LitEnum; Kind tells them apart.
	Str string
}

// BoolLit, IntLit, FloatLit, StringLit and EnumLit construct literals.
func BoolLit(v bool) Lit     { return Lit{Kind: LitBool, Bool: v} }
func IntLit(v int64) Lit     { return Lit{Kind: LitInt, Int: v} }
func FloatLit(v float64) Lit { return Lit{Kind: LitFloat, Float: v} }
func StringLit(v string) Lit { return Lit{Kind: LitString, Str: v} }
func EnumLit(lit string) Lit { return Lit{Kind: LitEnum, Str: lit} }

// String renders the literal in IDL syntax.
func (l Lit) String() string {
	switch l.Kind {
	case LitBool:
		if l.Bool {
			return "TRUE"
		}
		return "FALSE"
	case LitInt:
		return strconv.FormatInt(l.Int, 10)
	case LitFloat:
		s := strconv.FormatFloat(l.Float, 'g', -1, 64)
		// Ensure a float literal re-lexes as a float, not an int.
		if !containsAny(s, ".eE") {
			s += ".0"
		}
		return s
	case LitString:
		return strconv.Quote(l.Str)
	case LitEnum:
		return l.Str
	}
	return fmt.Sprintf("Lit(%d)", uint8(l.Kind))
}

func containsAny(s, chars string) bool {
	for _, c := range s {
		for _, d := range chars {
			if c == d {
				return true
			}
		}
	}
	return false
}

// Equal reports literal equality.
func (l Lit) Equal(o Lit) bool { return l == o }

// Const is a module-level constant declaration of the base SID part.
type Const struct {
	Name  string
	Type  *Type
	Value Lit
}

// Property is one characterising attribute value of a trader export
// (section 2.1: the exporter supplies values for all attributes of the
// service type, e.g. CarModel = FIAT_Uno).
type Property struct {
	Name  string
	Value Lit
}

// TraderExport is the COSM_TraderExport extension module (section 4.1):
// it carries the information an ODP trader needs to register the service
// as an offer of a standardised service type.
type TraderExport struct {
	// ServiceID is the provider-chosen offer identifier (4711 in the
	// paper's example).
	ServiceID uint64
	// TypeOfService names the standardised service type ("TOD" in the
	// paper's listing, e.g. "CarRentalService").
	TypeOfService string
	// Properties are the attribute values, in declaration order.
	Properties []Property
}

// Property returns the named property value.
func (t *TraderExport) Property(name string) (Lit, bool) {
	if t == nil {
		return Lit{}, false
	}
	for _, p := range t.Properties {
		if p.Name == name {
			return p.Value, true
		}
	}
	return Lit{}, false
}

// UISpec is the COSM_UI extension module: natural-language annotations
// and widget hints that drive automatic user interface generation at the
// generic client (sections 3.2 and 4.2, Figs. 3 and 7).
type UISpec struct {
	// Docs maps an element path to its annotation. Paths are dotted:
	// "SelectCar" for an operation, "SelectCar.selection" for one of its
	// parameters, "SelectCar.selection.model" for a record member.
	Docs map[string]string
	// Widgets maps an element path to a widget hint understood by the
	// UIMS, e.g. "choice", "text", "check", "spin".
	Widgets map[string]string
}

// Doc returns the annotation for path ("" if absent).
func (u *UISpec) Doc(path string) string {
	if u == nil {
		return ""
	}
	return u.Docs[path]
}

// Widget returns the widget hint for path ("" if absent).
func (u *UISpec) Widget(path string) string {
	if u == nil {
		return ""
	}
	return u.Widgets[path]
}

// RawModule preserves an embedded module this implementation does not
// understand. Per the paper (section 4.1), IDL interpreters "recognise
// only known module names and skip those that do not bear any meaning to
// them"; preserving the raw text keeps extended SIDs round-trippable, so
// a COSM node can forward descriptions it cannot interpret itself.
type RawModule struct {
	Name string
	// Body is the verbatim source text between the module's braces.
	Body string
}

// SID is a Service Interface Description: the communicable first-class
// service description at the centre of the COSM architecture.
type SID struct {
	// ServiceName is the name of the top-level IDL module.
	ServiceName string
	// Doc is the service-level annotation (doc comment on the module).
	Doc string
	// Types lists the named type declarations in order.
	Types []*Type
	// Consts lists base-part constant declarations in order.
	Consts []Const
	// Ops lists the operation signatures of the computational interface.
	Ops []Op

	// FSM is the optional protocol restriction (nil or unrestricted if
	// absent).
	FSM *fsm.Spec
	// Trader is the optional trader-export extension.
	Trader *TraderExport
	// UI is the optional user-interface annotation extension.
	UI *UISpec
	// Unknown preserves embedded modules with unrecognised names.
	Unknown []RawModule
}

// Errors reported by SID validation.
var (
	ErrNoName       = errors.New("sidl: SID has no service name")
	ErrDupType      = errors.New("sidl: duplicate type name")
	ErrDupOp        = errors.New("sidl: duplicate operation name")
	ErrUnknownOp    = errors.New("sidl: reference to unknown operation")
	ErrBadParamName = errors.New("sidl: duplicate parameter name")
	ErrVoid         = errors.New("sidl: void is only an operation's result type")
)

// Type returns the named type declaration, or nil.
func (s *SID) Type(name string) *Type {
	for _, t := range s.Types {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// Op returns the named operation signature.
func (s *SID) Op(name string) (Op, bool) {
	for _, o := range s.Ops {
		if o.Name == name {
			return o, true
		}
	}
	return Op{}, false
}

// OpNames returns the operation names in declaration order.
func (s *SID) OpNames() []string {
	names := make([]string, len(s.Ops))
	for i, o := range s.Ops {
		names[i] = o.Name
	}
	return names
}

// Const returns the named base-part constant.
func (s *SID) Const(name string) (Const, bool) {
	for _, c := range s.Consts {
		if c.Name == name {
			return c, true
		}
	}
	return Const{}, false
}

// Validate checks the internal consistency of the description:
// non-empty service name, unique type/operation/parameter names, a valid
// FSM whose operations all exist in the signature, and UI annotations
// that reference existing operations.
func (s *SID) Validate() error {
	if s.ServiceName == "" {
		return ErrNoName
	}
	typeNames := make(map[string]bool, len(s.Types))
	for _, t := range s.Types {
		if t.Name == "" {
			return fmt.Errorf("sidl: unnamed top-level type in %s", s.ServiceName)
		}
		if typeNames[t.Name] {
			return fmt.Errorf("%w: %s", ErrDupType, t.Name)
		}
		typeNames[t.Name] = true
		if t.hasVoid() {
			return fmt.Errorf("%w: in type %s", ErrVoid, t.Name)
		}
	}
	for _, c := range s.Consts {
		if c.Type.hasVoid() {
			return fmt.Errorf("%w: in constant %s", ErrVoid, c.Name)
		}
	}
	opNames := make(map[string]bool, len(s.Ops))
	for _, o := range s.Ops {
		if opNames[o.Name] {
			return fmt.Errorf("%w: %s", ErrDupOp, o.Name)
		}
		opNames[o.Name] = true
		params := make(map[string]bool, len(o.Params))
		for _, p := range o.Params {
			if params[p.Name] {
				return fmt.Errorf("%w: %s in op %s", ErrBadParamName, p.Name, o.Name)
			}
			params[p.Name] = true
			if p.Type == nil || p.Type.hasVoid() {
				return fmt.Errorf("%w: in parameter %s of op %s", ErrVoid, p.Name, o.Name)
			}
		}
		if o.Result == nil {
			return fmt.Errorf("sidl: op %s has nil result type", o.Name)
		}
		if o.Result.Kind != Void && o.Result.hasVoid() {
			return fmt.Errorf("%w: inside the result of op %s", ErrVoid, o.Name)
		}
	}
	if s.FSM.Restricted() {
		if err := s.FSM.Validate(); err != nil {
			return fmt.Errorf("sidl: %s: %w", s.ServiceName, err)
		}
		for _, t := range s.FSM.Transitions {
			if !opNames[t.Op] {
				return fmt.Errorf("%w: FSM transition op %q", ErrUnknownOp, t.Op)
			}
		}
	}
	if s.UI != nil {
		for path := range s.UI.Docs {
			if err := s.checkUIPath(path, opNames); err != nil {
				return err
			}
		}
		for path := range s.UI.Widgets {
			if err := s.checkUIPath(path, opNames); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *SID) checkUIPath(path string, opNames map[string]bool) error {
	head := path
	for i := 0; i < len(path); i++ {
		if path[i] == '.' {
			head = path[:i]
			break
		}
	}
	if !opNames[head] {
		return fmt.Errorf("%w: UI annotation path %q", ErrUnknownOp, path)
	}
	return nil
}

// ConformsTo implements SID-level record extension (section 3.1, Fig. 2):
// s conforms to base if it contains at least base's elements — every
// base operation with a structurally equal signature, and every base
// named type with an equal structure. Extensions (additional types, ops,
// FSM, trader export, UI annotations, unknown modules) never break
// conformance: components expecting the base description simply ignore
// them.
func (s *SID) ConformsTo(base *SID) error {
	for _, bt := range base.Types {
		st := s.Type(bt.Name)
		if st == nil {
			return fmt.Errorf("%w: missing base type %s", ErrNotConformant, bt.Name)
		}
		if !st.ConformsTo(bt) {
			return fmt.Errorf("%w: type %s does not conform to base", ErrNotConformant, bt.Name)
		}
	}
	for _, bo := range base.Ops {
		so, ok := s.Op(bo.Name)
		if !ok {
			return fmt.Errorf("%w: missing base operation %s", ErrNotConformant, bo.Name)
		}
		// Docs may differ; signatures must match structurally.
		so.Doc, bo.Doc = "", ""
		if !so.Equal(bo) {
			return fmt.Errorf("%w: operation %s signature differs from base", ErrNotConformant, bo.Name)
		}
	}
	return nil
}

// Clone returns a deep copy of the description.
func (s *SID) Clone() *SID {
	c := &SID{ServiceName: s.ServiceName, Doc: s.Doc}
	for _, t := range s.Types {
		c.Types = append(c.Types, t.Clone())
	}
	for _, k := range s.Consts {
		c.Consts = append(c.Consts, Const{Name: k.Name, Type: k.Type.Clone(), Value: k.Value})
	}
	for _, o := range s.Ops {
		c.Ops = append(c.Ops, o.Clone())
	}
	c.FSM = s.FSM.Clone()
	if s.Trader != nil {
		te := &TraderExport{ServiceID: s.Trader.ServiceID, TypeOfService: s.Trader.TypeOfService}
		te.Properties = append(te.Properties, s.Trader.Properties...)
		c.Trader = te
	}
	if s.UI != nil {
		u := &UISpec{Docs: map[string]string{}, Widgets: map[string]string{}}
		for k, v := range s.UI.Docs {
			u.Docs[k] = v
		}
		for k, v := range s.UI.Widgets {
			u.Widgets[k] = v
		}
		c.UI = u
	}
	c.Unknown = append(c.Unknown, s.Unknown...)
	return c
}

// Keywords returns a lowercase keyword set for browser search (service
// name, op names, type names, annotation words). Sorted, deduplicated.
func (s *SID) Keywords() []string {
	set := map[string]bool{lower(s.ServiceName): true}
	for _, o := range s.Ops {
		set[lower(o.Name)] = true
		addWords(set, o.Doc)
	}
	for _, t := range s.Types {
		set[lower(t.Name)] = true
	}
	addWords(set, s.Doc)
	if s.UI != nil {
		for _, d := range s.UI.Docs {
			addWords(set, d)
		}
	}
	delete(set, "")
	words := make([]string, 0, len(set))
	for w := range set {
		words = append(words, w)
	}
	sort.Strings(words)
	return words
}

func addWords(set map[string]bool, text string) {
	word := make([]rune, 0, 16)
	flush := func() {
		if len(word) > 0 {
			set[string(word)] = true
			word = word[:0]
		}
	}
	for _, r := range text {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			word = append(word, r)
		case r >= 'A' && r <= 'Z':
			word = append(word, r+('a'-'A'))
		default:
			flush()
		}
	}
	flush()
}

func lower(s string) string {
	b := []rune(s)
	for i, r := range b {
		if r >= 'A' && r <= 'Z' {
			b[i] = r + ('a' - 'A')
		}
	}
	return string(b)
}
