package obs

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Logger is the structured logger shared by every COSM component: one
// line per event, key=value pairs, tagged with the component name and —
// when the context carries one — the request trace. It replaces the
// scattered log.Printf-style defaults so a grep for trace=<id> finds a
// request's footprint across every daemon log.
//
// A nil *Logger discards everything, so instrumented code needs no nil
// checks. Derived loggers (With) share the parent's writer and mutex,
// so lines from all components of one process interleave atomically.
type Logger struct {
	mu   *sync.Mutex
	w    io.Writer
	comp string
	now  func() time.Time
}

// NewLogger returns a structured logger writing to w, tagged with the
// component name.
func NewLogger(w io.Writer, component string) *Logger {
	return &Logger{mu: &sync.Mutex{}, w: w, comp: component, now: time.Now}
}

// With returns a logger with the same writer but a different component
// tag.
func (l *Logger) With(component string) *Logger {
	if l == nil {
		return nil
	}
	return &Logger{mu: l.mu, w: l.w, comp: component, now: l.now}
}

// WithClock substitutes the timestamp source (tests).
func (l *Logger) WithClock(now func() time.Time) *Logger {
	if l == nil {
		return nil
	}
	return &Logger{mu: l.mu, w: l.w, comp: l.comp, now: now}
}

// Log emits one structured line: time, component, event, the trace
// carried by ctx (if any), then the key=value pairs in argument order.
// kv is alternating keys (string) and values (anything; rendered with
// %v and quoted when needed).
func (l *Logger) Log(ctx context.Context, event string, kv ...any) {
	if l == nil {
		return
	}
	var b strings.Builder
	b.Grow(128)
	b.WriteString("time=")
	b.WriteString(l.now().UTC().Format(time.RFC3339Nano))
	b.WriteString(" component=")
	b.WriteString(quoteIfNeeded(l.comp))
	b.WriteString(" event=")
	b.WriteString(quoteIfNeeded(event))
	if t := TraceFrom(ctx); t.Valid() {
		b.WriteString(" trace=")
		b.WriteString(t.ID)
		b.WriteString(" span=")
		b.WriteString(t.Span)
		if t.Parent != "" {
			b.WriteString(" parent=")
			b.WriteString(t.Parent)
		}
	}
	for i := 0; i+1 < len(kv); i += 2 {
		key, ok := kv[i].(string)
		if !ok {
			key = fmt.Sprintf("%v", kv[i])
		}
		b.WriteString(" ")
		b.WriteString(key)
		b.WriteString("=")
		b.WriteString(quoteIfNeeded(fmt.Sprintf("%v", kv[i+1])))
	}
	if len(kv)%2 == 1 {
		b.WriteString(" ")
		b.WriteString(quoteIfNeeded(fmt.Sprintf("%v", kv[len(kv)-1])))
	}
	b.WriteString("\n")
	l.mu.Lock()
	_, _ = io.WriteString(l.w, b.String())
	l.mu.Unlock()
}

// Logf emits a free-form message as a structured line (event="msg",
// msg=<formatted>). It adapts printf-style call sites to the structured
// format during migration; prefer Log with explicit keys.
func (l *Logger) Logf(format string, args ...any) {
	if l == nil {
		return
	}
	l.Log(nil, "msg", "msg", fmt.Sprintf(format, args...))
}

// Sink returns a printf-style function forwarding to Logf — the adapter
// for the pre-existing logf option hooks (wire.WithServerLog,
// daemon.Drain). A nil logger yields a no-op sink, never nil, so
// callers can install it unconditionally.
func (l *Logger) Sink() func(format string, args ...any) {
	if l == nil {
		return func(string, ...any) {}
	}
	return l.Logf
}

// quoteIfNeeded quotes values containing whitespace, quotes or '='
// so the line stays mechanically parseable.
func quoteIfNeeded(s string) string {
	if s == "" {
		return `""`
	}
	if strings.ContainsAny(s, " \t\n\"=") {
		return fmt.Sprintf("%q", s)
	}
	return s
}
