package obs

// Flight recorder, span half: every RPC hop — the client side of a call
// and the server side of a handler — records one timed Span into a
// bounded, lock-sharded ring buffer. Spans carry the trace/span/parent
// identity the wire layer already propagates (trace.go), so the recent
// history of a node can be reassembled into per-trace trees after the
// fact: "what happened, in what order, and where did the time go" for a
// request that fanned out across the market. The recorder is nil-safe
// like the Registry: a nil *SpanRecorder records nothing at negligible
// cost (cosmbench's obs.trace_overhead_ratio row is the enabled side).

import (
	"sort"
	"sync"
	"time"
)

// Span kinds.
const (
	// SpanClient is the caller's side of one RPC attempt.
	SpanClient = "client"
	// SpanServer is one handler execution.
	SpanServer = "server"
)

// Span is one recorded unit of timed work. ID/Parent are span IDs in
// the trace's tree: a client span is parented at the span that issued
// the call, and the server span it causes is parented at the client
// span, so edges link by Parent → ID across processes.
type Span struct {
	Trace    string        `json:"trace"`
	ID       string        `json:"id"`
	Parent   string        `json:"parent,omitempty"`
	Op       string        `json:"op"`
	Peer     string        `json:"peer,omitempty"`
	Node     string        `json:"node,omitempty"`
	Kind     string        `json:"kind"`
	Status   string        `json:"status"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"dur_ns"`
}

// End returns the span's completion instant.
func (s Span) End() time.Time { return s.Start.Add(s.Duration) }

// spanShards fixes the recorder's lock sharding. Spans shard by trace
// ID, so one trace's spans land in one shard and a per-trace lookup
// scans a single ring.
const spanShards = 8

type spanShard struct {
	mu   sync.Mutex
	buf  []Span
	next int
	full bool
}

// SpanRecorder is a bounded in-memory flight recorder of recent spans.
// A nil *SpanRecorder is a valid "recording off" recorder: Record
// no-ops and lookups return nothing, so instrumented paths need no
// branches. All methods are safe for concurrent use.
type SpanRecorder struct {
	shards [spanShards]spanShard
	// retained and overwritten report the rings' occupancy and drops;
	// nil until Instrument binds them.
	retained    *Gauge
	overwritten *Counter
}

// NewSpanRecorder returns a recorder retaining about capacity spans
// (split across the lock shards; capacity < spanShards is rounded up to
// one span per shard). A capacity <= 0 returns nil — recording off.
func NewSpanRecorder(capacity int) *SpanRecorder {
	if capacity <= 0 {
		return nil
	}
	per := (capacity + spanShards - 1) / spanShards
	r := &SpanRecorder{}
	for i := range r.shards {
		r.shards[i].buf = make([]Span, per)
	}
	return r
}

// Instrument reports the recorder's occupancy and its overwritten spans
// into reg (cosm_obs_spans_*). Call it before the first Record.
func (r *SpanRecorder) Instrument(reg *Registry) {
	if r == nil {
		return
	}
	r.retained = reg.Gauge("cosm_obs_spans_retained", "Spans the flight recorder currently holds.")
	r.overwritten = reg.Counter("cosm_obs_spans_overwritten_total", "Spans evicted from the full flight recorder by newer ones.")
}

// Enabled reports whether spans are being retained.
func (r *SpanRecorder) Enabled() bool { return r != nil }

// Record retains one completed span, evicting the oldest in its shard
// when the ring is full. Spans without a trace ID are dropped — they
// could never be assembled into a tree.
func (r *SpanRecorder) Record(s Span) {
	if r == nil || s.Trace == "" {
		return
	}
	sh := &r.shards[fnv32(s.Trace)%spanShards]
	sh.mu.Lock()
	evicting := sh.full
	sh.buf[sh.next] = s
	sh.next++
	if sh.next == len(sh.buf) {
		sh.next, sh.full = 0, true
	}
	sh.mu.Unlock()
	if evicting {
		r.overwritten.Inc()
	} else {
		r.retained.Add(1)
	}
}

// Snapshot copies every retained span, ordered by start time.
func (r *SpanRecorder) Snapshot() []Span {
	if r == nil {
		return nil
	}
	var out []Span
	for i := range r.shards {
		out = append(out, r.shards[i].snapshot()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// Trace returns the retained spans of one trace, ordered by start time.
// Sharding by trace ID means only one shard is scanned.
func (r *SpanRecorder) Trace(id string) []Span {
	if r == nil || id == "" {
		return nil
	}
	var out []Span
	for _, s := range r.shards[fnv32(id)%spanShards].snapshot() {
		if s.Trace == id {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

func (sh *spanShard) snapshot() []Span {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	n := sh.next
	if sh.full {
		n = len(sh.buf)
	}
	out := make([]Span, n)
	if sh.full {
		// Oldest-first: the ring wraps at next.
		copy(out, sh.buf[sh.next:])
		copy(out[len(sh.buf)-sh.next:], sh.buf[:sh.next])
	} else {
		copy(out, sh.buf[:n])
	}
	return out
}

// SpanNode is one node of a reassembled trace tree.
type SpanNode struct {
	Span
	Children []*SpanNode `json:"children,omitempty"`
}

// BuildSpanTree reassembles spans (possibly gathered from several
// nodes' recorders) into trees: edges link a span to the span whose ID
// is its Parent; spans whose parent was not recorded anywhere become
// roots. Duplicate recordings of the same span (one node queried twice)
// collapse; children and roots sort by start time. Spans from different
// traces yield separate trees.
func BuildSpanTree(spans []Span) []*SpanNode {
	byID := make(map[string]*SpanNode, len(spans))
	order := make([]*SpanNode, 0, len(spans))
	for _, s := range spans {
		key := s.Trace + "/" + s.ID + "/" + s.Kind
		if _, dup := byID[key]; dup {
			continue
		}
		n := &SpanNode{Span: s}
		byID[key] = n
		order = append(order, n)
	}
	// A server span shares no ID with its client span; link each span to
	// its parent preferring the client-side recording (the closer cause),
	// falling back to the server-side one.
	lookup := func(trace, id string) *SpanNode {
		if n, ok := byID[trace+"/"+id+"/"+SpanClient]; ok {
			return n
		}
		if n, ok := byID[trace+"/"+id+"/"+SpanServer]; ok {
			return n
		}
		return nil
	}
	var roots []*SpanNode
	for _, n := range order {
		if p := lookup(n.Trace, n.Parent); n.Parent != "" && p != nil && p != n {
			p.Children = append(p.Children, n)
			continue
		}
		roots = append(roots, n)
	}
	for _, n := range order {
		sort.Slice(n.Children, func(i, j int) bool { return n.Children[i].Start.Before(n.Children[j].Start) })
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Start.Before(roots[j].Start) })
	return roots
}

// TraceSummary is the listing view of one retained trace: its earliest
// span (the closest thing this node saw to the root), how many spans
// the node retained for it, and the wall-clock extent those spans cover.
type TraceSummary struct {
	Trace    string        `json:"trace"`
	Op       string        `json:"op"`
	Status   string        `json:"status"`
	Spans    int           `json:"spans"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"dur_ns"`
}

// Summaries folds the retained spans into per-trace summaries, newest
// first.
func (r *SpanRecorder) Summaries() []TraceSummary {
	spans := r.Snapshot()
	byTrace := map[string]*TraceSummary{}
	var order []*TraceSummary
	for _, s := range spans {
		ts, ok := byTrace[s.Trace]
		if !ok {
			ts = &TraceSummary{Trace: s.Trace, Op: s.Op, Status: s.Status, Start: s.Start}
			byTrace[s.Trace] = ts
			order = append(order, ts)
		}
		ts.Spans++
		if s.Start.Before(ts.Start) {
			ts.Start, ts.Op, ts.Status = s.Start, s.Op, s.Status
		}
		if ext := s.End().Sub(ts.Start); ext > ts.Duration {
			ts.Duration = ext
		}
	}
	out := make([]TraceSummary, len(order))
	for i, ts := range order {
		out[i] = *ts
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.After(out[j].Start) })
	return out
}

// SlowestN returns the n summaries with the largest duration, slowest
// first.
func SlowestN(summaries []TraceSummary, n int) []TraceSummary {
	out := append([]TraceSummary(nil), summaries...)
	sort.Slice(out, func(i, j int) bool { return out[i].Duration > out[j].Duration })
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// fnv32 is the FNV-1a hash of s, inlined to keep Record allocation-free.
func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
