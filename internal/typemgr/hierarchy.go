// Type-hierarchy index: the conformant-subtype closure of a base type,
// cached per repository generation.
//
// The trader's semantic matching engine (internal/match, phase 1) and
// the mesh's summary routing both need the same question answered:
// "which registered types can stand in for type T?". Walking the
// declared Super chains and re-running structural conformance for every
// import would put an O(types) scan with signature comparisons on the
// hot path, so the closure is computed once per (base, repo generation)
// and invalidated by comparing generations, never by callbacks.
package typemgr

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ErrTypeCycle reports a supertype chain that loops back on itself. The
// Define path rejects such types outright; the hierarchy walks also
// guard against cycles so a corrupted repository (e.g. a hand-built one
// in tests, or a future bulk-load path) fails loudly instead of
// spinning.
var ErrTypeCycle = errors.New("typemgr: supertype cycle")

// ConformantType is one member of a base type's conformant closure: a
// registered type whose offers satisfy imports for the base.
type ConformantType struct {
	// Name of the conforming type.
	Name string
	// Depth is the declared-subtype distance from the base: 0 for the
	// base itself, 1 for a direct declared subtype, and so on. It is
	// meaningful only when Structural is false.
	Depth int
	// Structural marks types with no declared Super path to the base
	// that nevertheless structurally conform (attribute + signature
	// subsumption). They are the weakest full matches: substitutable,
	// but never standardised as refinements.
	Structural bool
}

// hierarchyCache holds closures keyed by base type name, valid for a
// single repository generation.
type hierarchyCache struct {
	mu       sync.Mutex
	gen      uint64
	closures map[string][]ConformantType
}

// ConformingTypes returns the conformant closure of base: every
// registered type whose offers satisfy an import for base, the base
// itself first (Depth 0), then declared subtypes ordered by ascending
// Depth, then structural-only conformers; ties sort by name so the
// result is deterministic. The slice is shared and must not be
// mutated. An unknown base returns the bare ErrTypeUnknown and is not
// cached: importers send whatever type names they like, and a cache
// entry per name would grow without bound. A corrupted declared
// hierarchy returns ErrTypeCycle.
func (r *Repo) ConformingTypes(base string) ([]ConformantType, error) {
	gen := r.gen.Load()
	r.hier.mu.Lock()
	if r.hier.gen != gen || r.hier.closures == nil {
		r.hier.gen = gen
		r.hier.closures = map[string][]ConformantType{}
	}
	if cl, ok := r.hier.closures[base]; ok {
		r.hier.mu.Unlock()
		return cl, nil
	}
	r.hier.mu.Unlock()

	cl, err := r.buildClosure(base)
	if err != nil {
		return nil, err
	}
	r.hier.mu.Lock()
	// Only publish if the repository has not moved on underneath us.
	if r.hier.gen == gen && r.hier.closures != nil {
		r.hier.closures[base] = cl
	}
	r.hier.mu.Unlock()
	return cl, nil
}

// Covers reports whether an offer of type sub satisfies an import for
// base according to the same closure the matching engine uses. It is
// the single coverage predicate shared by local matching and mesh
// summary routing (planScatter/gossip), so the two can never disagree.
// Unknown sub types simply do not cover (no error): remote summaries
// routinely advertise types this trader has never defined.
func (r *Repo) Covers(base, sub string) bool {
	if base == sub {
		return true
	}
	cl, err := r.ConformingTypes(base)
	if err != nil {
		return false
	}
	for _, c := range cl {
		if c.Name == sub {
			return true
		}
	}
	return false
}

// buildClosure computes the closure uncached.
func (r *Repo) buildClosure(base string) ([]ConformantType, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	baseT, ok := r.types[base]
	if !ok {
		return nil, ErrTypeUnknown
	}
	cl := []ConformantType{{Name: base, Depth: 0}}
	for name, st := range r.types {
		if name == base {
			continue
		}
		depth, declared, err := r.declaredDepthLocked(st, base)
		if err != nil {
			return nil, err
		}
		switch {
		case declared:
			cl = append(cl, ConformantType{Name: name, Depth: depth})
		case st.StructurallyConformsTo(baseT) == nil:
			cl = append(cl, ConformantType{Name: name, Structural: true})
		}
	}
	sort.Slice(cl, func(i, j int) bool {
		a, b := cl[i], cl[j]
		if a.Structural != b.Structural {
			return !a.Structural
		}
		if a.Depth != b.Depth {
			return a.Depth < b.Depth
		}
		return a.Name < b.Name
	})
	return cl, nil
}

// declaredDepthLocked walks st's Super chain looking for base,
// returning the link distance when found. Requires r.mu held. A chain
// that revisits a type is a cycle.
func (r *Repo) declaredDepthLocked(st *ServiceType, base string) (int, bool, error) {
	seen := map[string]bool{st.Name: true}
	depth := 0
	for cur := st; cur.Super != ""; {
		depth++
		if cur.Super == base {
			return depth, true, nil
		}
		if seen[cur.Super] {
			return 0, false, fmt.Errorf("%w: via %q", ErrTypeCycle, cur.Super)
		}
		seen[cur.Super] = true
		next, ok := r.types[cur.Super]
		if !ok {
			break
		}
		cur = next
	}
	return 0, false, nil
}

// checkNoCycleLocked verifies that linking st under its Super produces
// an acyclic chain. Requires r.mu held; called before st is inserted,
// so the walk starts from the would-be supertype.
func (r *Repo) checkNoCycleLocked(st *ServiceType) error {
	if st.Super == "" {
		return nil
	}
	if st.Super == st.Name {
		return fmt.Errorf("%w: %q names itself as supertype", ErrTypeCycle, st.Name)
	}
	seen := map[string]bool{st.Name: true}
	for cur := r.types[st.Super]; cur != nil; cur = r.types[cur.Super] {
		if seen[cur.Name] {
			return fmt.Errorf("%w: via %q", ErrTypeCycle, cur.Name)
		}
		seen[cur.Name] = true
		if cur.Super == "" {
			return nil
		}
	}
	return nil
}
