package obs

import (
	"sync"
	"testing"
	"time"
)

func TestEventLogNilSafe(t *testing.T) {
	var l *EventLog
	l.Instrument(NewRegistry())
	l.Record("promote", "epoch", "3")
	if got := l.Events(); got != nil {
		t.Fatalf("nil log events = %v", got)
	}
	if l.Len() != 0 {
		t.Fatal("nil log length nonzero")
	}
	if NewEventLog("n", 0) != nil {
		t.Fatal("zero-capacity log should be nil")
	}
}

func TestEventLogBoundedAndOrdered(t *testing.T) {
	now := time.Unix(5000, 0)
	l := NewEventLog("n1", 4).WithClock(func() time.Time { return now })
	reg := NewRegistry()
	l.Instrument(reg)
	for i := 0; i < 10; i++ {
		now = now.Add(time.Second)
		l.Record("tick", "i", string(rune('0'+i)))
	}
	got := l.Events()
	if len(got) != 4 {
		t.Fatalf("retained %d events, want 4", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq != got[i-1].Seq+1 {
			t.Fatalf("events out of order: %v", got)
		}
	}
	if got[3].Seq != 10 {
		t.Fatalf("newest seq = %d, want 10", got[3].Seq)
	}
	if got[0].Node != "n1" || got[0].Kind != "tick" {
		t.Fatalf("event attribution broken: %+v", got[0])
	}
	// The ring reports what it holds and what it dropped.
	retained := reg.Gauge("cosm_obs_events_retained", "").Value()
	overwritten := reg.Counter("cosm_obs_events_overwritten_total", "").Value()
	if retained != 4 || overwritten != 6 {
		t.Fatalf("retained=%d overwritten=%d, want 4 and 6", retained, overwritten)
	}
}

func TestEventLogAttrs(t *testing.T) {
	l := NewEventLog("", 8)
	l.Record("vote", "candidate", "n2", "epoch", "4", "granted")
	e := l.Events()[0]
	if e.Attr["candidate"] != "n2" || e.Attr["epoch"] != "4" {
		t.Fatalf("attrs = %v", e.Attr)
	}
	if v, ok := e.Attr["granted"]; !ok || v != "" {
		t.Fatalf("odd trailing key mishandled: %v", e.Attr)
	}
}

func TestMergeEvents(t *testing.T) {
	base := time.Unix(6000, 0)
	at := func(n string, d time.Duration, kind string, seq uint64) Event {
		return Event{Seq: seq, Time: base.Add(d), Node: n, Kind: kind}
	}
	a := []Event{at("a", 0, "suspect", 1), at("a", 3*time.Second, "promote", 2)}
	b := []Event{at("b", time.Second, "candidacy", 1), at("b", 2*time.Second, "vote", 2)}
	merged := MergeEvents(a, b)
	want := []string{"suspect", "candidacy", "vote", "promote"}
	if len(merged) != len(want) {
		t.Fatalf("merged %d events, want %d", len(merged), len(want))
	}
	for i, k := range want {
		if merged[i].Kind != k {
			t.Fatalf("merged[%d] = %s, want %s (full: %v)", i, merged[i].Kind, k, merged)
		}
	}
}

func TestEventLogConcurrent(t *testing.T) {
	l := NewEventLog("n", 128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Record("e", "k", "v")
				_ = l.Events()
			}
		}()
	}
	wg.Wait()
	if l.Len() != 128 {
		t.Fatalf("len = %d, want full ring 128", l.Len())
	}
}
