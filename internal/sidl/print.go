package sidl

import (
	"fmt"
	"sort"
	"strings"
)

// MarshalText renders the SID as canonical SIDL (CORBA-IDL-conformant)
// source. This text form is the communicable representation of a SID:
// components exchange descriptions as text and re-parse them, so any
// CORBA-compliant tool can process the base part while COSM components
// interpret the embedded extension modules (section 4.1).
func (s *SID) MarshalText() ([]byte, error) {
	return []byte(s.IDL()), nil
}

// UnmarshalText parses canonical SIDL text, replacing *s.
func (s *SID) UnmarshalText(text []byte) error {
	parsed, err := Parse(string(text))
	if err != nil {
		return err
	}
	*s = *parsed
	return nil
}

// IDL renders the SID as SIDL source text.
func (s *SID) IDL() string {
	var b strings.Builder
	if s.Doc != "" {
		writeDoc(&b, "", s.Doc)
	}
	fmt.Fprintf(&b, "module %s {\n", s.ServiceName)
	for _, t := range s.Types {
		writeTypeDecl(&b, t)
	}
	for _, c := range s.Consts {
		fmt.Fprintf(&b, "    const %s %s = %s;\n", typeRef(c.Type), c.Name, c.Value)
	}
	if len(s.Ops) > 0 {
		fmt.Fprintf(&b, "    interface %s {\n", ModOperations)
		for _, o := range s.Ops {
			if o.Doc != "" {
				writeDoc(&b, "        ", o.Doc)
			}
			fmt.Fprintf(&b, "        %s %s(", typeRef(o.Result), o.Name)
			for i, p := range o.Params {
				if i > 0 {
					b.WriteString(", ")
				}
				fmt.Fprintf(&b, "%s %s %s", p.Dir, typeRef(p.Type), p.Name)
			}
			b.WriteString(");\n")
		}
		b.WriteString("    };\n")
	}
	if s.FSM.Restricted() {
		fmt.Fprintf(&b, "    module %s {\n", ModFSM)
		fmt.Fprintf(&b, "        initial %s;\n", s.FSM.Initial)
		for _, t := range s.FSM.Transitions {
			fmt.Fprintf(&b, "        transition %s %s %s;\n", t.From, t.Op, t.To)
		}
		b.WriteString("    };\n")
	}
	if s.Trader != nil {
		fmt.Fprintf(&b, "    module %s {\n", ModTraderExport)
		fmt.Fprintf(&b, "        const unsigned long ServiceID = %d;\n", s.Trader.ServiceID)
		fmt.Fprintf(&b, "        const string TOD = %q;\n", s.Trader.TypeOfService)
		for _, p := range s.Trader.Properties {
			fmt.Fprintf(&b, "        const %s %s = %s;\n", litTypeRef(s, p.Value), p.Name, p.Value)
		}
		b.WriteString("    };\n")
	}
	if s.UI != nil && (len(s.UI.Docs) > 0 || len(s.UI.Widgets) > 0) {
		fmt.Fprintf(&b, "    module %s {\n", ModUI)
		for _, path := range sortedKeys(s.UI.Docs) {
			fmt.Fprintf(&b, "        doc %s %q;\n", path, s.UI.Docs[path])
		}
		for _, path := range sortedKeys(s.UI.Widgets) {
			fmt.Fprintf(&b, "        widget %s %s;\n", path, s.UI.Widgets[path])
		}
		b.WriteString("    };\n")
	}
	for _, m := range s.Unknown {
		fmt.Fprintf(&b, "    module %s {\n", m.Name)
		for _, line := range strings.Split(m.Body, "\n") {
			fmt.Fprintf(&b, "        %s\n", strings.TrimSpace(line))
		}
		b.WriteString("    };\n")
	}
	b.WriteString("};\n")
	return b.String()
}

func writeDoc(b *strings.Builder, indent, doc string) {
	for _, line := range strings.Split(doc, "\n") {
		fmt.Fprintf(b, "%s// %s\n", indent, line)
	}
}

func writeTypeDecl(b *strings.Builder, t *Type) {
	switch t.Kind {
	case Enum:
		fmt.Fprintf(b, "    enum %s { %s };\n", t.Name, strings.Join(t.Literals, ", "))
	case Struct:
		fmt.Fprintf(b, "    struct %s {\n", t.Name)
		for _, f := range t.Fields {
			fmt.Fprintf(b, "        %s %s;\n", typeRef(f.Type), f.Name)
		}
		b.WriteString("    };\n")
	default:
		fmt.Fprintf(b, "    typedef %s %s;\n", typeRefAnon(t), t.Name)
	}
}

// typeRef renders a type reference: named types by name, anonymous ones
// structurally.
func typeRef(t *Type) string {
	if t == nil {
		return "void"
	}
	if t.Name != "" {
		return t.Name
	}
	return typeRefAnon(t)
}

// typeRefAnon renders the structural spelling, ignoring the name (used
// for the right-hand side of a typedef).
func typeRefAnon(t *Type) string {
	switch t.Kind {
	case Sequence:
		return "sequence<" + typeRef(t.Elem) + ">"
	case Enum:
		return "enum { " + strings.Join(t.Literals, ", ") + " }"
	case Struct:
		var b strings.Builder
		b.WriteString("struct { ")
		for _, f := range t.Fields {
			fmt.Fprintf(&b, "%s %s; ", typeRef(f.Type), f.Name)
		}
		b.WriteString("}")
		return b.String()
	default:
		return t.Kind.String()
	}
}

// litTypeRef picks an IDL const type for a literal: enum literals use
// their declaring type if it can be found in the SID, other literals use
// the natural basic type.
func litTypeRef(s *SID, l Lit) string {
	switch l.Kind {
	case LitBool:
		return "boolean"
	case LitInt:
		return "long long"
	case LitFloat:
		return "double"
	case LitString:
		return "string"
	case LitEnum:
		for _, t := range s.Types {
			if t.Kind == Enum {
				if _, ok := t.Ordinal(l.Str); ok {
					return t.Name
				}
			}
		}
		return "string" // unreachable for validated SIDs
	}
	return "string"
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
