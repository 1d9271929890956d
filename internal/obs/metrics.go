// Package obs is the zero-dependency observability layer of the COSM
// reproduction: counters, gauges and bounded histograms with quantile
// estimation (metrics.go), a per-request trace context propagated on
// the wire (trace.go), a structured key=value logger (log.go), the
// daemon introspection endpoints /metrics, /debug/vars and /healthz
// (http.go), and the bounded buffers that report what they hold and
// drop: the flight recorder's ring (ring.go) and the LRU (lru.go).
//
// Everything is stdlib-only and nil-safe: a nil *Registry hands out nil
// instruments whose methods are no-ops, so instrumented code paths need
// no "is observability on?" branches and cost almost nothing when
// disabled.
//
// Cardinality is bounded by construction: label values beyond a vec's
// cap collapse into the reserved "_other" child, so a client spraying
// unique endpoint strings (or a market with unbounded service types)
// cannot grow a registry without bound.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets are the default latency histogram bounds in seconds:
// roughly exponential from 100µs to 30s, fitting both loopback RPCs
// and federation hops on a congested market.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// CountBuckets are histogram bounds for small cardinalities (offer
// match counts, federation fan-outs).
var CountBuckets = []float64{0, 1, 2, 5, 10, 25, 50, 100, 250}

// maxLabelCard bounds the number of distinct label values one vec
// tracks; further values collapse into the "_other" child.
const maxLabelCard = 64

// otherLabel is the overflow child of a vec at its cardinality cap.
const otherLabel = "_other"

// metric is anything the registry can export.
type metric interface {
	// promWrite appends the Prometheus text exposition of the metric.
	promWrite(w io.Writer)
	// jsonValue returns the metric's /debug/vars representation.
	jsonValue() any
	metricName() string
	typeName() string
}

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry. A nil *Registry is a valid "observability off" registry:
// every constructor returns a nil instrument whose methods no-op.
type Registry struct {
	mu      sync.Mutex
	byName  map[string]metric
	ordered []metric
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]metric{}}
}

// register interns a metric by name: the first registration wins and
// later ones with the same name receive the existing instrument, so
// components sharing a registry share families. Re-registering a name
// as a different metric type is a programming error and panics.
func (r *Registry) register(name string, fresh metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		if m.typeName() != fresh.typeName() {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, fresh.typeName(), m.typeName()))
		}
		return m
	}
	r.byName[name] = fresh
	r.ordered = append(r.ordered, fresh)
	return fresh
}

// Counter is a monotonically increasing counter.
type Counter struct {
	name, help string
	v          atomic.Uint64
}

// Counter returns the named counter, creating it on first use. On a nil
// registry it returns nil, whose methods no-op.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, &Counter{name: name, help: help}).(*Counter)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) metricName() string { return c.name }
func (c *Counter) typeName() string   { return "counter" }
func (c *Counter) jsonValue() any     { return c.Value() }
func (c *Counter) promWrite(w io.Writer) {
	promHeader(w, c.name, c.help, "counter")
	fmt.Fprintf(w, "%s %d\n", c.name, c.Value())
}

// Gauge is a value that can go up and down.
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, &Gauge{name: name, help: help}).(*Gauge)
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds delta (negative to decrement).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

func (g *Gauge) metricName() string { return g.name }
func (g *Gauge) typeName() string   { return "gauge" }
func (g *Gauge) jsonValue() any     { return g.Value() }
func (g *Gauge) promWrite(w io.Writer) {
	promHeader(w, g.name, g.help, "gauge")
	fmt.Fprintf(w, "%s %d\n", g.name, g.Value())
}

// GaugeFunc exports a value computed at scrape time (pool sizes, queue
// depths owned by other structs).
type GaugeFunc struct {
	name, help string
	fn         func() float64
}

// GaugeFunc registers a gauge whose value is fn() at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(name, &GaugeFunc{name: name, help: help, fn: fn})
}

func (g *GaugeFunc) metricName() string { return g.name }
func (g *GaugeFunc) typeName() string   { return "gaugefunc" }
func (g *GaugeFunc) jsonValue() any     { return g.fn() }
func (g *GaugeFunc) promWrite(w io.Writer) {
	promHeader(w, g.name, g.help, "gauge")
	fmt.Fprintf(w, "%s %s\n", g.name, formatFloat(g.fn()))
}

// Histogram is a fixed-bucket histogram: bounded memory regardless of
// observation volume, with quantiles estimated by linear interpolation
// within the bucket containing the target rank.
type Histogram struct {
	name, help string
	bounds     []float64 // upper bounds, ascending; +Inf implied last
	counts     []atomic.Uint64
	count      atomic.Uint64
	sumBits    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use (nil bounds = DefBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DefBuckets
	}
	h := &Histogram{name: name, help: help, bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	return r.register(name, h).(*Histogram)
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search: bounds are small (≤ ~20), but branch-free lookup
	// keeps the hot path cheap either way.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Quantile estimates the p-quantile (0 < p ≤ 1) of all observations.
func (h *Histogram) Quantile(p float64) float64 {
	return h.Snapshot().Quantile(p)
}

// HistSnapshot is a point-in-time copy of a histogram.
type HistSnapshot struct {
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
}

// Snapshot copies the histogram's current state (zero value on nil).
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Quantile estimates the p-quantile of the snapshot: the bucket holding
// the target rank is found by cumulative count, and the value is
// linearly interpolated between the bucket's bounds. Values in the
// overflow (+Inf) bucket report the largest finite bound.
func (s HistSnapshot) Quantile(p float64) float64 {
	if s.Count == 0 || len(s.Counts) == 0 {
		return 0
	}
	rank := p * float64(s.Count)
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(s.Bounds) { // +Inf bucket
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		if c == 0 {
			return hi
		}
		frac := (rank - float64(cum-c)) / float64(c)
		return lo + (hi-lo)*frac
	}
	return s.Bounds[len(s.Bounds)-1]
}

func (h *Histogram) metricName() string { return h.name }
func (h *Histogram) typeName() string   { return "histogram" }
func (h *Histogram) jsonValue() any {
	s := h.Snapshot()
	return map[string]any{
		"count": s.Count,
		"sum":   s.Sum,
		"p50":   s.Quantile(0.50),
		"p95":   s.Quantile(0.95),
		"p99":   s.Quantile(0.99),
	}
}
func (h *Histogram) promWrite(w io.Writer) {
	promHeader(w, h.name, h.help, "histogram")
	h.promWriteLabeled(w, "")
}

// promWriteLabeled writes the bucket/sum/count series with extraLabels
// (already formatted, e.g. `endpoint="tcp:..."`) merged into each line.
func (h *Histogram) promWriteLabeled(w io.Writer, extraLabels string) {
	s := h.Snapshot()
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		le := "+Inf"
		if i < len(s.Bounds) {
			le = formatFloat(s.Bounds[i])
		}
		if extraLabels != "" {
			fmt.Fprintf(w, "%s_bucket{%s,le=%q} %d\n", h.name, extraLabels, le, cum)
		} else {
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.name, le, cum)
		}
	}
	suffix := ""
	if extraLabels != "" {
		suffix = "{" + extraLabels + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", h.name, suffix, formatFloat(s.Sum))
	fmt.Fprintf(w, "%s_count%s %d\n", h.name, suffix, s.Count)
}

// labelFamily is the children of a labelled family: one per label value,
// at most maxLabelCard of them, in registration order. Past the cap,
// new values share the "_other" child.
type labelFamily[C any] struct {
	label    string
	newChild func() C

	mu     sync.Mutex
	byName map[string]C
	order  []string
}

func newLabelFamily[C any](label string, newChild func() C) labelFamily[C] {
	return labelFamily[C]{label: label, newChild: newChild, byName: map[string]C{}}
}

// with returns the child for the label value, creating it on first use.
func (f *labelFamily[C]) with(value string) C {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.byName[value]; ok {
		return c
	}
	if len(f.byName) >= maxLabelCard {
		value = otherLabel
		if c, ok := f.byName[value]; ok {
			return c
		}
	}
	c := f.newChild()
	f.byName[value] = c
	f.order = append(f.order, value)
	return c
}

// snapshot returns (label value, child) pairs in registration order.
func (f *labelFamily[C]) snapshot() ([]string, []C) {
	f.mu.Lock()
	defer f.mu.Unlock()
	labels := append([]string(nil), f.order...)
	cs := make([]C, len(labels))
	for i, l := range labels {
		cs[i] = f.byName[l]
	}
	return labels, cs
}

// CounterVec is a family of counters partitioned by one label.
type CounterVec struct {
	name, help string
	labelFamily[*Counter]
}

// CounterVec returns the named counter family partitioned by label.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	if r == nil {
		return nil
	}
	return r.register(name, &CounterVec{name: name, help: help, labelFamily: newLabelFamily(label, func() *Counter { return &Counter{name: name} })}).(*CounterVec)
}

// With returns the child counter for the label value, creating it on
// first use; past the cardinality cap all new values share the
// "_other" child.
func (v *CounterVec) With(value string) *Counter {
	if v == nil {
		return nil
	}
	return v.with(value)
}

// Total sums all children.
func (v *CounterVec) Total() uint64 {
	if v == nil {
		return 0
	}
	_, cs := v.snapshot()
	var n uint64
	for _, c := range cs {
		n += c.Value()
	}
	return n
}

// Snapshot returns the current value of every child by label (empty on
// nil), for callers that diff snapshots into interval views.
func (v *CounterVec) Snapshot() map[string]uint64 {
	if v == nil {
		return map[string]uint64{}
	}
	labels, cs := v.snapshot()
	m := make(map[string]uint64, len(labels))
	for i, l := range labels {
		m[l] = cs[i].Value()
	}
	return m
}

func (v *CounterVec) metricName() string { return v.name }
func (v *CounterVec) typeName() string   { return "countervec" }
func (v *CounterVec) jsonValue() any {
	labels, cs := v.snapshot()
	m := make(map[string]any, len(labels))
	for i, l := range labels {
		m[l] = cs[i].Value()
	}
	return m
}
func (v *CounterVec) promWrite(w io.Writer) {
	promHeader(w, v.name, v.help, "counter")
	labels, cs := v.snapshot()
	for i, l := range labels {
		fmt.Fprintf(w, "%s{%s=%q} %d\n", v.name, v.label, l, cs[i].Value())
	}
}

// HistogramVec is a family of histograms partitioned by one label.
type HistogramVec struct {
	name, help string
	labelFamily[*Histogram]
}

// HistogramVec returns the named histogram family partitioned by label
// (nil bounds = DefBuckets).
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DefBuckets
	}
	newChild := func() *Histogram {
		return &Histogram{name: name, bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	}
	return r.register(name, &HistogramVec{name: name, help: help, labelFamily: newLabelFamily(label, newChild)}).(*HistogramVec)
}

// With returns the child histogram for the label value, creating it on
// first use; past the cardinality cap all new values share the
// "_other" child.
func (v *HistogramVec) With(value string) *Histogram {
	if v == nil {
		return nil
	}
	return v.with(value)
}

// Snapshot returns each child's HistSnapshot by label (empty on nil).
func (v *HistogramVec) Snapshot() map[string]HistSnapshot {
	if v == nil {
		return map[string]HistSnapshot{}
	}
	labels, cs := v.snapshot()
	m := make(map[string]HistSnapshot, len(labels))
	for i, l := range labels {
		m[l] = cs[i].Snapshot()
	}
	return m
}

func (v *HistogramVec) metricName() string { return v.name }
func (v *HistogramVec) typeName() string   { return "histogramvec" }
func (v *HistogramVec) jsonValue() any {
	labels, cs := v.snapshot()
	m := make(map[string]any, len(labels))
	for i, l := range labels {
		m[l] = cs[i].jsonValue()
	}
	return m
}
func (v *HistogramVec) promWrite(w io.Writer) {
	promHeader(w, v.name, v.help, "histogram")
	labels, cs := v.snapshot()
	for i, l := range labels {
		cs[i].promWriteLabeled(w, fmt.Sprintf("%s=%q", v.label, l))
	}
}

// WritePrometheus writes every registered metric in the Prometheus text
// exposition format, in registration order.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	ms := append([]metric(nil), r.ordered...)
	r.mu.Unlock()
	for _, m := range ms {
		m.promWrite(w)
	}
}

// JSONValue returns all metrics as a name → value map for /debug/vars.
func (r *Registry) JSONValue() map[string]any {
	if r == nil {
		return map[string]any{}
	}
	r.mu.Lock()
	ms := append([]metric(nil), r.ordered...)
	r.mu.Unlock()
	out := make(map[string]any, len(ms))
	for _, m := range ms {
		out[m.metricName()] = m.jsonValue()
	}
	return out
}

func promHeader(w io.Writer, name, help, typ string) {
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
}

// formatFloat renders a float the way Prometheus expects (no exponent
// for common magnitudes, minimal digits).
func formatFloat(f float64) string {
	s := fmt.Sprintf("%g", f)
	// %g may produce "1e-05"-style exponents for small bucket bounds;
	// Prometheus accepts them, but fixed notation reads better.
	if strings.ContainsAny(s, "eE") {
		s = fmt.Sprintf("%f", f)
		s = strings.TrimRight(s, "0")
		s = strings.TrimRight(s, ".")
	}
	return s
}
