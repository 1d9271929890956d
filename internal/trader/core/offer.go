package core

import (
	"fmt"
	"strconv"
	"time"

	"cosm/internal/match"
	"cosm/internal/ref"
	"cosm/internal/sidl"
)

// Offer is one exported service offer: the triangular relationship of
// Fig. 1 stores these at the trader (step 1) and hands matching ones to
// importers (step 3), which then bind directly (steps 4 and 5).
//
// Stored offers are immutable: mutation operations (Replace,
// MarkSuspect) swap in a fresh copy, so offers returned by Import are
// shared snapshots that must not be modified by callers.
type Offer struct {
	// ID is the trader-assigned offer identifier, unique per trader.
	ID string
	// Type names the registered service type the offer belongs to.
	Type string
	// Ref is the exporter's service reference for direct binding.
	Ref ref.ServiceRef
	// Props holds the characterising attribute values.
	Props map[string]sidl.Lit
	// Expires is the lease expiry instant; the zero value means the
	// offer never expires. Expired offers stop matching immediately and
	// are reclaimed by PurgeExpired. Leases let providers in an open
	// market disappear without leaving dangling offers behind — the
	// liveness gap of 1994-era traders that failure tests demonstrate.
	Expires time.Time
	// Suspect marks an offer whose provider failed its most recent
	// liveness probe (see Sweeper). Suspect offers still match — the
	// failure may have been a transient network hiccup and the bind
	// failover path skips dead providers anyway — but importers and
	// operators can see the flag and prefer healthy offers.
	Suspect bool
}

// Expired reports whether the offer's lease has run out at time now.
func (o *Offer) Expired(now time.Time) bool {
	return !o.Expires.IsZero() && now.After(o.Expires)
}

// Clone returns a deep copy that is safe to modify.
func (o *Offer) Clone() *Offer {
	c := &Offer{ID: o.ID, Type: o.Type, Ref: o.Ref, Props: make(map[string]sidl.Lit, len(o.Props)), Expires: o.Expires, Suspect: o.Suspect}
	for k, v := range o.Props {
		c.Props[k] = v
	}
	return c
}

// Match is one graded import result: the offer plus how well it
// satisfies the request (see the match package for the grade lattice
// and scoring model). The Offer is a shared immutable snapshot; the
// grade and score are per-request and cost no offer copy.
type Match struct {
	*Offer
	// Grade classifies the match: exact type, conforming subtype, or
	// partial attribute satisfaction. Offers relayed by pre-grading
	// peers arrive as GradeNone and are re-graded by the origin trader.
	Grade match.Grade
	// Score orders matches of equal grade: the type-conformance score
	// (1.0 exact, decaying with declared subtype depth, 0.5 structural)
	// scaled down for partial-attribute matches so that every full
	// match outranks every partial one.
	Score float64
}

// PropRecord is one offer property in journal form, reusing the wire
// protocol's kind/text literal encoding.
type PropRecord struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	Text string `json:"text"`
}

// OfferRecord is the journal form of one stored offer. Unlike the wire
// form (whole Unix seconds), expiry is kept at nanosecond precision so
// a recovered trader purges leases at exactly the instants the original
// would have.
type OfferRecord struct {
	ID      string       `json:"id"`
	Type    string       `json:"type"`
	Ref     string       `json:"ref"`
	Props   []PropRecord `json:"props,omitempty"`
	Expires int64        `json:"expires,omitempty"` // UnixNano; 0 = never
	Suspect bool         `json:"suspect,omitempty"`
}

// Record returns the offer in its canonical durable form — sorted
// kind/text property encoding, nanosecond expiry. The journal, the
// compaction snapshot and cosmcli's dump format all share this one
// representation, so a dump of a recovered trader is comparable
// byte-for-byte with a dump of the original.
func (o *Offer) Record() OfferRecord {
	rec := OfferRecord{ID: o.ID, Type: o.Type, Ref: o.Ref.String(), Props: PropsToRecords(o.Props), Suspect: o.Suspect}
	if !o.Expires.IsZero() {
		rec.Expires = o.Expires.UnixNano()
	}
	return rec
}

// OfferFromRecord reverses (*Offer).Record.
func OfferFromRecord(rec OfferRecord) (*Offer, error) {
	r, err := ref.Parse(rec.Ref)
	if err != nil {
		return nil, fmt.Errorf("trader: journal offer %q: %w", rec.ID, err)
	}
	props, err := PropsFromRecords(rec.Props)
	if err != nil {
		return nil, fmt.Errorf("trader: journal offer %q: %w", rec.ID, err)
	}
	o := &Offer{ID: rec.ID, Type: rec.Type, Ref: r, Props: props, Suspect: rec.Suspect}
	if rec.Expires != 0 {
		o.Expires = time.Unix(0, rec.Expires)
	}
	return o, nil
}

// PropsToRecords renders a property set in record form, sorted by name.
func PropsToRecords(props map[string]sidl.Lit) []PropRecord {
	out := make([]PropRecord, 0, len(props))
	for _, name := range SortedPropNames(props) {
		kind, text := EncodeLit(props[name])
		out = append(out, PropRecord{Name: name, Kind: kind, Text: text})
	}
	return out
}

// PropsFromRecords reverses PropsToRecords.
func PropsFromRecords(recs []PropRecord) (map[string]sidl.Lit, error) {
	props := make(map[string]sidl.Lit, len(recs))
	for _, p := range recs {
		lit, err := DecodeLit(p.Kind, p.Text)
		if err != nil {
			return nil, err
		}
		props[p.Name] = lit
	}
	return props, nil
}

// SortedPropNames returns the property names in ascending order — the
// order every encoded form of an offer lists them in.
func SortedPropNames(props map[string]sidl.Lit) []string {
	names := make([]string, 0, len(props))
	for n := range props {
		names = append(names, n)
	}
	for i := 1; i < len(names); i++ { // insertion sort: tiny inputs
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}

// EncodeLit renders a property literal as the kind/text pair the
// journal and the wire protocol share.
func EncodeLit(l sidl.Lit) (kind, text string) {
	switch l.Kind {
	case sidl.LitBool:
		return "bool", strconv.FormatBool(l.Bool)
	case sidl.LitInt:
		return "int", strconv.FormatInt(l.Int, 10)
	case sidl.LitFloat:
		return "float", strconv.FormatFloat(l.Float, 'g', -1, 64)
	case sidl.LitString:
		return "string", l.Str
	case sidl.LitEnum:
		return "enum", l.Enum
	}
	return "", ""
}

// DecodeLit reverses EncodeLit.
func DecodeLit(kind, text string) (sidl.Lit, error) {
	switch kind {
	case "bool":
		b, err := strconv.ParseBool(text)
		if err != nil {
			return sidl.Lit{}, fmt.Errorf("trader: bad bool property %q: %w", text, err)
		}
		return sidl.BoolLit(b), nil
	case "int":
		i, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return sidl.Lit{}, fmt.Errorf("trader: bad int property %q: %w", text, err)
		}
		return sidl.IntLit(i), nil
	case "float":
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return sidl.Lit{}, fmt.Errorf("trader: bad float property %q: %w", text, err)
		}
		return sidl.FloatLit(f), nil
	case "string":
		return sidl.StringLit(text), nil
	case "enum":
		return sidl.EnumLit(text), nil
	}
	return sidl.Lit{}, fmt.Errorf("trader: unknown property kind %q", kind)
}
