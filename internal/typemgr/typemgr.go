// Package typemgr implements the type management function of the ODP
// trader (paper section 2.1 and reference [5], "A Type Management System
// for an ODP Trader"; the "Type Manager" box of Fig. 6).
//
// A ServiceType is the unit of standardisation: it fixes an operational
// interface signature and a set of characterising attribute types. An
// exporter must refer to a registered service type and supply values for
// all of its attributes; importers request offers by service type, and a
// repository-maintained conformance relation lets offers of a subtype
// satisfy requests for a base type.
package typemgr

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"cosm/internal/sidl"
	"cosm/internal/xcode"
)

// Errors reported by the repository.
var (
	ErrTypeExists   = errors.New("typemgr: service type already registered")
	ErrTypeUnknown  = errors.New("typemgr: unknown service type")
	ErrTypeInUse    = errors.New("typemgr: service type has registered subtypes")
	ErrBadType      = errors.New("typemgr: malformed service type")
	ErrMissingAttr  = errors.New("typemgr: offer lacks required attribute")
	ErrAttrMismatch = errors.New("typemgr: attribute value does not fit its type")
)

// AttrDef is one characterising attribute of a service type, e.g.
// "ChargePerDay : Float" in the paper's CarRentalService listing.
type AttrDef struct {
	Name string
	Type *sidl.Type
}

// ServiceType is a registered, standardised service classification.
type ServiceType struct {
	// Name identifies the type, e.g. "CarRentalService".
	Name string
	// Super optionally names a registered supertype this type refines.
	// A subtype must structurally conform to its supertype.
	Super string
	// Attrs are the characterising attribute types.
	Attrs []AttrDef
	// Signature is the operational interface: the operations an
	// instance of this type must offer.
	Signature []sidl.Op
}

// Attr returns the attribute definition by name.
func (st *ServiceType) Attr(name string) (AttrDef, bool) {
	for _, a := range st.Attrs {
		if a.Name == name {
			return a, true
		}
	}
	return AttrDef{}, false
}

// Op returns the signature operation by name.
func (st *ServiceType) Op(name string) (sidl.Op, bool) {
	for _, o := range st.Signature {
		if o.Name == name {
			return o, true
		}
	}
	return sidl.Op{}, false
}

// validate checks internal consistency.
func (st *ServiceType) validate() error {
	if st.Name == "" {
		return fmt.Errorf("%w: empty name", ErrBadType)
	}
	seen := map[string]bool{}
	for _, a := range st.Attrs {
		if a.Name == "" || a.Type == nil {
			return fmt.Errorf("%w: attribute with empty name or nil type in %s", ErrBadType, st.Name)
		}
		if seen[a.Name] {
			return fmt.Errorf("%w: duplicate attribute %q in %s", ErrBadType, a.Name, st.Name)
		}
		seen[a.Name] = true
	}
	ops := map[string]bool{}
	for _, o := range st.Signature {
		if o.Name == "" || o.Result == nil {
			return fmt.Errorf("%w: malformed operation in %s", ErrBadType, st.Name)
		}
		if ops[o.Name] {
			return fmt.Errorf("%w: duplicate operation %q in %s", ErrBadType, o.Name, st.Name)
		}
		ops[o.Name] = true
	}
	return nil
}

// StructurallyConformsTo reports whether st can stand in for base:
// every base attribute exists with a conforming type and every base
// operation exists with a structurally equal signature (the same
// record-extension discipline as SID conformance).
func (st *ServiceType) StructurallyConformsTo(base *ServiceType) error {
	for _, ba := range base.Attrs {
		sa, ok := st.Attr(ba.Name)
		if !ok {
			return fmt.Errorf("%w: %s lacks attribute %q of %s", sidl.ErrNotConformant, st.Name, ba.Name, base.Name)
		}
		if !sa.Type.ConformsTo(ba.Type) {
			return fmt.Errorf("%w: attribute %q of %s", sidl.ErrNotConformant, ba.Name, st.Name)
		}
	}
	for _, bo := range base.Signature {
		so, ok := st.Op(bo.Name)
		if !ok {
			return fmt.Errorf("%w: %s lacks operation %q of %s", sidl.ErrNotConformant, st.Name, bo.Name, base.Name)
		}
		so.Doc, bo.Doc = "", ""
		if !so.Equal(bo) {
			return fmt.Errorf("%w: operation %q of %s differs from %s", sidl.ErrNotConformant, bo.Name, st.Name, base.Name)
		}
	}
	return nil
}

// FromSID derives a service type from a SID carrying a trader-export
// extension: the signature is the SID's, the attribute types are
// inferred from the export's property values, and the name is the
// export's type-of-service. This is the "maturation" path of section
// 4.1: a mediated service's description becomes the standardised type.
func FromSID(sid *sidl.SID) (*ServiceType, error) {
	if sid.Trader == nil {
		return nil, fmt.Errorf("%w: SID %s has no %s module", ErrBadType, sid.ServiceName, sidl.ModTraderExport)
	}
	st := &ServiceType{Name: sid.Trader.TypeOfService}
	for _, o := range sid.Ops {
		st.Signature = append(st.Signature, o.Clone())
	}
	for _, p := range sid.Trader.Properties {
		at, err := litAttrType(sid, p.Value)
		if err != nil {
			return nil, fmt.Errorf("attribute %q: %w", p.Name, err)
		}
		st.Attrs = append(st.Attrs, AttrDef{Name: p.Name, Type: at})
	}
	if err := st.validate(); err != nil {
		return nil, err
	}
	return st, nil
}

func litAttrType(sid *sidl.SID, l sidl.Lit) (*sidl.Type, error) {
	switch l.Kind {
	case sidl.LitBool:
		return sidl.Basic(sidl.Bool), nil
	case sidl.LitInt:
		return sidl.Basic(sidl.Int64), nil
	case sidl.LitFloat:
		return sidl.Basic(sidl.Float64), nil
	case sidl.LitString:
		return sidl.Basic(sidl.String), nil
	case sidl.LitEnum:
		for _, t := range sid.Types {
			if t.Kind == sidl.Enum {
				if _, ok := t.Ordinal(l.Str); ok {
					return t, nil
				}
			}
		}
		return nil, fmt.Errorf("%w: enum literal %q not declared in SID", ErrBadType, l.Str)
	}
	return nil, fmt.Errorf("%w: literal kind %d", ErrBadType, l.Kind)
}

// Repo is the type repository: the trader's management interface inserts
// and deletes service type entries here. Safe for concurrent use.
type Repo struct {
	mu      sync.RWMutex
	types   map[string]*ServiceType
	sources map[string]string
	gen     atomic.Uint64
	hier    hierarchyCache
}

// NewRepo returns an empty repository.
func NewRepo() *Repo {
	return &Repo{types: map[string]*ServiceType{}, sources: map[string]string{}}
}

// Define registers a service type. If the type names a supertype, the
// supertype must already be registered and the new type must
// structurally conform to it.
func (r *Repo) Define(st *ServiceType) error {
	return r.DefineWithSource(st, "")
}

// DefineWithSource registers a service type and retains the source text
// it was derived from (SIDL, for types defined via the maturation path).
// The source is what a durable trader journals and replays, so types
// survive a restart byte-identically; an empty source means the type is
// in-memory only (it will not appear in Sources).
func (r *Repo) DefineWithSource(st *ServiceType, source string) error {
	if err := st.validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.types[st.Name]; dup {
		return fmt.Errorf("%w: %q", ErrTypeExists, st.Name)
	}
	if st.Super != "" {
		if err := r.checkNoCycleLocked(st); err != nil {
			return err
		}
		super, ok := r.types[st.Super]
		if !ok {
			return fmt.Errorf("%w: supertype %q", ErrTypeUnknown, st.Super)
		}
		if err := st.StructurallyConformsTo(super); err != nil {
			return err
		}
	}
	r.types[st.Name] = st
	if source != "" {
		r.sources[st.Name] = source
	}
	r.gen.Add(1)
	return nil
}

// Sources returns a copy of all retained type sources by type name.
func (r *Repo) Sources() map[string]string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]string, len(r.sources))
	for n, s := range r.sources {
		out[n] = s
	}
	return out
}

// Lookup returns the registered type by name.
func (r *Repo) Lookup(name string) (*ServiceType, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	st, ok := r.types[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrTypeUnknown, name)
	}
	return st, nil
}

// Remove deletes a type. Types that still have registered subtypes
// cannot be removed.
func (r *Repo) Remove(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.types[name]; !ok {
		return fmt.Errorf("%w: %q", ErrTypeUnknown, name)
	}
	for _, st := range r.types {
		if st.Super == name {
			return fmt.Errorf("%w: %q is supertype of %q", ErrTypeInUse, name, st.Name)
		}
	}
	delete(r.types, name)
	delete(r.sources, name)
	r.gen.Add(1)
	return nil
}

// Names returns all registered type names, sorted.
func (r *Repo) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.types))
	for n := range r.types {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Len returns the number of registered types.
func (r *Repo) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.types)
}

// Conforms reports whether offers of type sub satisfy requests for type
// base: either the names are equal, base is reachable from sub through
// Super links, or sub structurally conforms to base.
func (r *Repo) Conforms(sub, base string) (bool, error) {
	if sub == base {
		return true, nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	subT, ok := r.types[sub]
	if !ok {
		return false, fmt.Errorf("%w: %q", ErrTypeUnknown, sub)
	}
	baseT, ok := r.types[base]
	if !ok {
		return false, fmt.Errorf("%w: %q", ErrTypeUnknown, base)
	}
	// Declared hierarchy first (cheap), structure second.
	if _, ok, err := r.declaredDepthLocked(subT, base); err != nil {
		return false, err
	} else if ok {
		return true, nil
	}
	return subT.StructurallyConformsTo(baseT) == nil, nil
}

// CheckOffer validates a set of attribute values against the named
// type: every declared attribute must be present and its value must fit
// the attribute type. Extra properties are permitted (they simply do not
// take part in typed matching).
func (r *Repo) CheckOffer(typeName string, props []sidl.Property) error {
	st, err := r.Lookup(typeName)
	if err != nil {
		return err
	}
	byName := make(map[string]sidl.Lit, len(props))
	for _, p := range props {
		byName[p.Name] = p.Value
	}
	for _, a := range st.Attrs {
		lit, ok := byName[a.Name]
		if !ok {
			return fmt.Errorf("%w: %q of type %s", ErrMissingAttr, a.Name, typeName)
		}
		if err := xcode.CheckLit(a.Type, lit); err != nil {
			return fmt.Errorf("%w: %q: %v", ErrAttrMismatch, a.Name, err)
		}
	}
	return nil
}
