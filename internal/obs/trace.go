package obs

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"math/rand/v2"
)

// Trace identifies one logical request as it fans out across the
// market: one trace ID minted at the importer, one span ID per hop, and
// the parent span that caused the hop. The wire layer carries (ID,
// Span) in request-frame metadata; each server derives a child span for
// its handler context, so a federated import through two traders and a
// direct bind at the exporter all log the same trace ID with a span
// tree underneath it.
type Trace struct {
	// ID is the request identity, stable across every hop.
	ID string
	// Span identifies this hop's work.
	Span string
	// Parent is the span that caused this one ("" at the root).
	Parent string
}

// Valid reports whether the trace carries an ID.
func (t Trace) Valid() bool { return t.ID != "" }

// Child derives the trace for one outgoing hop: same ID, fresh span,
// parented at the current span.
func (t Trace) Child() Trace {
	return Trace{ID: t.ID, Span: newID(), Parent: t.Span}
}

// NewTrace mints a root trace (fresh ID and span, no parent).
func NewTrace() Trace {
	return Trace{ID: newID(), Span: newID()}
}

// newID returns 16 hex characters of randomness. math/rand/v2's global
// generator is goroutine-safe and cheap — trace IDs need uniqueness
// within operator attention spans, not cryptographic strength.
func newID() string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], rand.Uint64())
	return hex.EncodeToString(b[:])
}

type traceKey struct{}

// WithTrace returns ctx carrying t.
func WithTrace(ctx context.Context, t Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom extracts the trace carried by ctx (zero Trace when none).
func TraceFrom(ctx context.Context) Trace {
	if ctx == nil {
		return Trace{}
	}
	t, _ := ctx.Value(traceKey{}).(Trace)
	return t
}

// EnsureTrace returns ctx guaranteed to carry a trace, minting a root
// trace when none is present. Importer entry points (cosmcli commands,
// tests) call this once; every layer below only propagates.
func EnsureTrace(ctx context.Context) (context.Context, Trace) {
	if t := TraceFrom(ctx); t.Valid() {
		return ctx, t
	}
	t := NewTrace()
	return WithTrace(ctx, t), t
}
