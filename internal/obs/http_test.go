package obs

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestHandlerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("cosm_up_total", "help").Add(7)
	healthy := error(nil)
	srv := httptest.NewServer(Handler(reg, func() error { return healthy }, MuxConfig{}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != 200 || !strings.Contains(body, "cosm_up_total 7") {
		t.Fatalf("/metrics = %d %q", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("/metrics content type = %q", ct)
	}

	resp, err = http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(readAll(t, resp)), &doc); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	cosmVars, ok := doc["cosm"].(map[string]any)
	if !ok || cosmVars["cosm_up_total"] != float64(7) {
		t.Fatalf("/debug/vars cosm = %v", doc["cosm"])
	}
	if _, ok := doc["goroutines"]; !ok {
		t.Fatal("/debug/vars missing goroutines")
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/healthz = %d", resp.StatusCode)
	}
	healthy = errors.New("draining")
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(readAll(t, resp), "draining") {
		t.Fatalf("unhealthy /healthz = %d", resp.StatusCode)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			return b.String()
		}
	}
}

func TestHandlerFlightRecorderEndpoints(t *testing.T) {
	rec := NewSpanRecorder(64)
	ev := NewEventLog("n1", 16)
	base := time.Unix(7000, 0)
	rec.Record(spanAt("tr1", "c1", "", "svc/Op", SpanClient, base, 40*time.Millisecond))
	rec.Record(spanAt("tr1", "s1", "c1", "svc/Op", SpanServer, base.Add(5*time.Millisecond), 30*time.Millisecond))
	ev.Record("promote", "epoch", "2")
	srv := httptest.NewServer(Handler(NewRegistry(), nil, MuxConfig{Spans: rec, Events: ev, Pprof: true}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Traces  int            `json:"traces"`
		Recent  []TraceSummary `json:"recent"`
		Slowest []TraceSummary `json:"slowest"`
	}
	if err := json.Unmarshal([]byte(readAll(t, resp)), &listing); err != nil {
		t.Fatalf("/debug/traces not JSON: %v", err)
	}
	if listing.Traces != 1 || len(listing.Recent) != 1 || listing.Recent[0].Spans != 2 {
		t.Fatalf("/debug/traces listing = %+v", listing)
	}

	resp, err = http.Get(srv.URL + "/debug/traces?id=tr1")
	if err != nil {
		t.Fatal(err)
	}
	var tree struct {
		Trace string      `json:"trace"`
		Spans []Span      `json:"spans"`
		Roots []*SpanNode `json:"roots"`
	}
	if err := json.Unmarshal([]byte(readAll(t, resp)), &tree); err != nil {
		t.Fatalf("/debug/traces?id not JSON: %v", err)
	}
	if len(tree.Spans) != 2 || len(tree.Roots) != 1 || len(tree.Roots[0].Children) != 1 {
		t.Fatalf("/debug/traces?id tree = %+v", tree)
	}

	resp, err = http.Get(srv.URL + "/debug/events")
	if err != nil {
		t.Fatal(err)
	}
	var events struct {
		Events []Event `json:"events"`
	}
	if err := json.Unmarshal([]byte(readAll(t, resp)), &events); err != nil {
		t.Fatalf("/debug/events not JSON: %v", err)
	}
	if len(events.Events) != 1 || events.Events[0].Kind != "promote" || events.Events[0].Attr["epoch"] != "2" {
		t.Fatalf("/debug/events = %+v", events)
	}

	resp, err = http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, resp); resp.StatusCode != 200 {
		t.Fatalf("/debug/pprof/cmdline = %d", resp.StatusCode)
	}
}

func TestHandlerWithoutRecorderOmitsEndpoints(t *testing.T) {
	srv := httptest.NewServer(Handler(NewRegistry(), nil, MuxConfig{}))
	defer srv.Close()
	for _, path := range []string{"/debug/traces", "/debug/events", "/debug/pprof/cmdline"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if readAll(t, resp); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s = %d, want 404 when disabled", path, resp.StatusCode)
		}
	}
}

func TestServeIntrospectionBadAddr(t *testing.T) {
	if _, err := ServeIntrospection("256.256.256.256:bad", NewRegistry(), nil, MuxConfig{}); err == nil {
		t.Fatal("bad addr accepted")
	}
}
