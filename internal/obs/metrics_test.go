package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	// Same name interns to the same instrument.
	if r.Counter("c_total", "help") != c {
		t.Fatal("counter not interned")
	}

	g := r.Gauge("g", "help")
	g.Set(7)
	g.Add(-3)
	if g.Value() != 4 {
		t.Fatalf("gauge = %d", g.Value())
	}

	// Nil registry and nil instruments are inert.
	var nilReg *Registry
	nc := nilReg.Counter("x", "")
	nc.Inc()
	if nc.Value() != 0 {
		t.Fatal("nil counter counted")
	}
	nilReg.Gauge("x", "").Add(1)
	nilReg.GaugeFunc("x", "", func() float64 { return 1 })
	nilReg.Histogram("x", "", nil).Observe(1)
	nilReg.CounterVec("x", "", "l").With("a").Inc()
	nilReg.HistogramVec("x", "", "l", nil).With("a").Observe(1)
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering m as a gauge did not panic")
		}
	}()
	r.Gauge("m", "help")
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "help", []float64{0.1, 0.5, 1, 5})
	for i := 0; i < 100; i++ {
		h.Observe(0.3) // all in the (0.1, 0.5] bucket
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	p50 := h.Quantile(0.5)
	if p50 <= 0.1 || p50 > 0.5 {
		t.Fatalf("p50 = %v, want within (0.1, 0.5]", p50)
	}
	// Values beyond the last bound land in +Inf and report the largest
	// finite bound.
	h.Observe(100)
	if q := h.Quantile(1); q != 5 {
		t.Fatalf("overflow quantile = %v, want 5", q)
	}
	if q := (HistSnapshot{}).Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %v", q)
	}
}

func TestVecCardinalityBounded(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("v_total", "help", "who")
	for i := 0; i < maxLabelCard+20; i++ {
		v.With(fmt.Sprintf("label-%d", i)).Inc()
	}
	snap := v.Snapshot()
	// The cap admits maxLabelCard distinct children plus the overflow
	// bucket; everything past the cap collapses into "_other".
	if len(snap) > maxLabelCard+1 {
		t.Fatalf("cardinality = %d, want <= %d", len(snap), maxLabelCard+1)
	}
	if snap[otherLabel] != 20 {
		t.Fatalf("overflow bucket = %d, want 20", snap[otherLabel])
	}
	if v.Total() != uint64(maxLabelCard+20) {
		t.Fatalf("total = %d", v.Total())
	}

	hv := r.HistogramVec("hv", "help", "who", []float64{1})
	for i := 0; i < maxLabelCard+5; i++ {
		hv.With(fmt.Sprintf("label-%d", i)).Observe(0.5)
	}
	if hs := hv.Snapshot(); hs[otherLabel].Count != 5 {
		t.Fatalf("hist overflow = %+v", hs[otherLabel])
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("cosm_demo_total", "A demo counter.").Add(2)
	r.GaugeFunc("cosm_demo_depth", "A demo gauge.", func() float64 { return 1.5 })
	r.CounterVec("cosm_demo_by_status", "By status.", "status").With("ok").Inc()
	r.Histogram("cosm_demo_seconds", "A demo histogram.", []float64{1, 2}).Observe(1.5)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# HELP cosm_demo_total A demo counter.",
		"# TYPE cosm_demo_total counter",
		"cosm_demo_total 2",
		"cosm_demo_depth 1.5",
		`cosm_demo_by_status{status="ok"} 1`,
		`cosm_demo_seconds_bucket{le="2"} 1`,
		`cosm_demo_seconds_bucket{le="+Inf"} 1`,
		"cosm_demo_seconds_sum 1.5",
		"cosm_demo_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestJSONValue(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Add(3)
	r.HistogramVec("lat", "", "ep", nil).With("x").Observe(0.2)
	doc := r.JSONValue()
	if doc["a_total"] != uint64(3) {
		t.Fatalf("a_total = %v", doc["a_total"])
	}
	lat, ok := doc["lat"].(map[string]any)
	if !ok {
		t.Fatalf("lat = %T", doc["lat"])
	}
	child, ok := lat["x"].(map[string]any)
	if !ok || child["count"] != uint64(1) {
		t.Fatalf("lat.x = %v", lat["x"])
	}
	if got := (*Registry)(nil).JSONValue(); len(got) != 0 {
		t.Fatalf("nil JSONValue = %v", got)
	}
}

func TestCountBuckets(t *testing.T) {
	b := CountBuckets
	if len(b) == 0 || b[0] != 0 {
		t.Fatalf("CountBuckets = %v", b)
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("CountBuckets not ascending: %v", b)
		}
	}
}

func TestConcurrentInstrumentUse(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("races_total", "")
	h := r.Histogram("races_seconds", "", nil)
	v := r.CounterVec("races_by", "", "l")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j) / 1000)
				v.With(fmt.Sprintf("l%d", i%3)).Inc()
			}
		}(i)
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 || v.Total() != 8000 {
		t.Fatalf("counts = %d %d %d", c.Value(), h.Count(), v.Total())
	}
}
