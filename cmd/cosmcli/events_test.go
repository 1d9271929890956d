package main

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cosm/internal/obs"
)

// startIntrospection serves one fake daemon's flight-recorder endpoints.
func startIntrospection(t *testing.T, rec *obs.SpanRecorder, ev *obs.EventLog) string {
	t.Helper()
	srv := httptest.NewServer(obs.Handler(obs.NewRegistry(), nil, obs.MuxConfig{Spans: rec, Events: ev}))
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

// TestEventsCommandMergesTimelines merges two daemons' timelines into
// one causally ordered cluster view.
func TestEventsCommandMergesTimelines(t *testing.T) {
	base := time.Now()
	clock := base
	evA := obs.NewEventLog("nodeA", 16).WithClock(func() time.Time { return clock })
	evB := obs.NewEventLog("nodeB", 16).WithClock(func() time.Time { return clock })

	clock = base
	evB.Record("suspect", "misses", "3")
	clock = base.Add(10 * time.Millisecond)
	evB.Record("candidacy", "epoch", "2")
	clock = base.Add(20 * time.Millisecond)
	evA.Record("vote_granted", "candidate", "B", "epoch", "2")
	clock = base.Add(30 * time.Millisecond)
	evB.Record("promote", "epoch", "2")

	addrA := startIntrospection(t, nil, evA)
	addrB := startIntrospection(t, nil, evB)

	out, err := capture(t, func() error {
		return runWithInput([]string{"events", addrA, addrB}, strings.NewReader(""))
	})
	if err != nil {
		t.Fatal(err)
	}
	order := []string{"suspect", "candidacy", "vote_granted", "promote"}
	pos := -1
	for _, kind := range order {
		i := strings.Index(out, kind)
		if i < 0 {
			t.Fatalf("merged timeline missing %q:\n%s", kind, out)
		}
		if i < pos {
			t.Fatalf("merged timeline out of causal order at %q:\n%s", kind, out)
		}
		pos = i
	}
	if !strings.Contains(out, "nodeA") || !strings.Contains(out, "nodeB") {
		t.Fatalf("timeline lost node attribution:\n%s", out)
	}
}

// TestTraceCommandAssemblesTree gathers one trace's spans from two
// daemons — each holding only its own hops — into a single tree.
func TestTraceCommandAssemblesTree(t *testing.T) {
	base := time.Now()
	recA := obs.NewSpanRecorder(16)
	recB := obs.NewSpanRecorder(16)
	recA.Record(obs.Span{Trace: "tr9", ID: "c1", Op: "cosm.trader/Import", Kind: obs.SpanClient, Status: "ok", Start: base, Duration: 40 * time.Millisecond})
	recB.Record(obs.Span{Trace: "tr9", ID: "s1", Parent: "c1", Op: "cosm.trader/Import", Kind: obs.SpanServer, Status: "ok", Start: base.Add(time.Millisecond), Duration: 38 * time.Millisecond})
	recB.Record(obs.Span{Trace: "tr9", ID: "c2", Parent: "s1", Op: "cosm.trader/ReplPull", Kind: obs.SpanClient, Status: "ok", Start: base.Add(2 * time.Millisecond), Duration: 20 * time.Millisecond})

	addrA := startIntrospection(t, recA, nil)
	addrB := startIntrospection(t, recB, nil)

	out, err := capture(t, func() error {
		return runWithInput([]string{"trace", addrA, addrB, "tr9"}, strings.NewReader(""))
	})
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Trace string          `json:"trace"`
		Spans int             `json:"spans"`
		Roots []*obs.SpanNode `json:"roots"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("trace output not JSON: %v\n%s", err, out)
	}
	if doc.Trace != "tr9" || doc.Spans != 3 || len(doc.Roots) != 1 {
		t.Fatalf("trace doc = %+v", doc)
	}
	if len(doc.Roots[0].Children) != 1 || len(doc.Roots[0].Children[0].Children) != 1 {
		t.Fatalf("tree not three hops deep: %+v", doc.Roots[0])
	}

	if _, err := capture(t, func() error {
		return runWithInput([]string{"trace", addrA, "no-such-trace"}, strings.NewReader(""))
	}); err == nil || !strings.Contains(err.Error(), "no spans found") {
		t.Fatalf("missing trace error = %v", err)
	}
}
