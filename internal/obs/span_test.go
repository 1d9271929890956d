package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func spanAt(trace, id, parent, op, kind string, start time.Time, d time.Duration) Span {
	return Span{Trace: trace, ID: id, Parent: parent, Op: op, Kind: kind, Status: "ok", Start: start, Duration: d}
}

func TestSpanRecorderNilSafe(t *testing.T) {
	var r *SpanRecorder
	r.Instrument(NewRegistry())
	r.Record(Span{Trace: "t", ID: "a"})
	if n := testing.AllocsPerRun(100, func() { r.Record(Span{Trace: "t", ID: "a"}) }); n != 0 {
		t.Fatalf("nil recorder allocates %v per Record", n)
	}
	// An uninstrumented recorder records without allocating too.
	live := NewSpanRecorder(8)
	if n := testing.AllocsPerRun(100, func() { live.Record(Span{Trace: "t", ID: "a"}) }); n != 0 {
		t.Fatalf("uninstrumented recorder allocates %v per Record", n)
	}
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	if got := r.Snapshot(); got != nil {
		t.Fatalf("nil recorder snapshot = %v", got)
	}
	if got := r.Trace("t"); got != nil {
		t.Fatalf("nil recorder trace = %v", got)
	}
	if got := r.Summaries(); len(got) != 0 {
		t.Fatalf("nil recorder summaries = %v", got)
	}
	if NewSpanRecorder(0) != nil {
		t.Fatal("zero-capacity recorder should be nil")
	}
}

func TestSpanRecorderBounded(t *testing.T) {
	r := NewSpanRecorder(16)
	reg := NewRegistry()
	r.Instrument(reg)
	base := time.Unix(1000, 0)
	// Overfill the ring and check it keeps only the newest window,
	// oldest-first.
	for i := 0; i < 40; i++ {
		r.Record(spanAt("tr", fmt.Sprintf("s%02d", i), "", "op", SpanServer, base.Add(time.Duration(i)*time.Millisecond), time.Millisecond))
	}
	got := r.Trace("tr")
	if len(got) == 0 || len(got) > 16 {
		t.Fatalf("retained %d spans, want 1..16", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Start.Before(got[i-1].Start) {
			t.Fatalf("spans out of order at %d: %v before %v", i, got[i].Start, got[i-1].Start)
		}
	}
	if last := got[len(got)-1]; last.ID != "s39" {
		t.Fatalf("newest span = %s, want s39 (eviction must drop oldest)", last.ID)
	}
	// The ring reports what it holds and what it dropped.
	retained := reg.Gauge("cosm_obs_spans_retained", "").Value()
	overwritten := reg.Counter("cosm_obs_spans_overwritten_total", "").Value()
	if int(retained) != len(got) || int(overwritten) != 40-len(got) {
		t.Fatalf("retained=%d overwritten=%d, want %d and %d", retained, overwritten, len(got), 40-len(got))
	}
}

func TestSpanRecorderDropsUntraced(t *testing.T) {
	r := NewSpanRecorder(8)
	r.Record(Span{ID: "x", Op: "op"})
	if got := r.Snapshot(); len(got) != 0 {
		t.Fatalf("untraced span retained: %v", got)
	}
}

func TestBuildSpanTreeLinksHops(t *testing.T) {
	base := time.Unix(2000, 0)
	// root(client call c1) -> server s1 -> client c2 -> server s2
	spans := []Span{
		spanAt("tr", "c1", "root", "svc/Op", SpanClient, base, 40*time.Millisecond),
		spanAt("tr", "s1", "c1", "svc/Op", SpanServer, base.Add(5*time.Millisecond), 30*time.Millisecond),
		spanAt("tr", "c2", "s1", "peer/Op", SpanClient, base.Add(10*time.Millisecond), 20*time.Millisecond),
		spanAt("tr", "s2", "c2", "peer/Op", SpanServer, base.Add(12*time.Millisecond), 15*time.Millisecond),
	}
	roots := BuildSpanTree(spans)
	if len(roots) != 1 {
		t.Fatalf("roots = %d, want 1 connected tree", len(roots))
	}
	depth := 0
	for n := roots[0]; n != nil; {
		depth++
		if len(n.Children) > 1 {
			t.Fatalf("unexpected branching at %s", n.ID)
		}
		if len(n.Children) == 0 {
			n = nil
		} else {
			n = n.Children[0]
		}
	}
	if depth != 4 {
		t.Fatalf("chain depth = %d, want 4", depth)
	}
	// Duplicate recordings (same span fetched from two nodes) collapse.
	if again := BuildSpanTree(append(spans, spans...)); len(again) != 1 {
		t.Fatalf("duplicated spans produced %d roots, want 1", len(again))
	}
}

func TestSummariesAndSlowest(t *testing.T) {
	r := NewSpanRecorder(64)
	base := time.Unix(3000, 0)
	r.Record(spanAt("fast", "a", "", "svc/Quick", SpanServer, base, 2*time.Millisecond))
	r.Record(spanAt("slow", "b", "", "svc/Slow", SpanServer, base.Add(time.Second), 500*time.Millisecond))
	r.Record(spanAt("slow", "c", "b", "peer/Hop", SpanServer, base.Add(1100*time.Millisecond), 300*time.Millisecond))
	sums := r.Summaries()
	if len(sums) != 2 {
		t.Fatalf("summaries = %d, want 2", len(sums))
	}
	if sums[0].Trace != "slow" {
		t.Fatalf("newest-first order broken: %v", sums)
	}
	slowest := SlowestN(sums, 1)
	if len(slowest) != 1 || slowest[0].Trace != "slow" {
		t.Fatalf("slowest = %v, want trace 'slow'", slowest)
	}
	if slowest[0].Spans != 2 {
		t.Fatalf("slow trace spans = %d, want 2", slowest[0].Spans)
	}
	if slowest[0].Duration < 500*time.Millisecond {
		t.Fatalf("slow trace duration = %v, want >= 500ms", slowest[0].Duration)
	}
}

func TestSpanRecorderConcurrent(t *testing.T) {
	r := NewSpanRecorder(256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr := fmt.Sprintf("t%d", g)
				r.Record(spanAt(tr, fmt.Sprintf("s%d", i), "", "op", SpanServer, time.Unix(int64(i), 0), time.Millisecond))
				_ = r.Trace(tr)
			}
		}(g)
	}
	wg.Wait()
	if len(r.Snapshot()) == 0 {
		t.Fatal("no spans retained after concurrent load")
	}
}
