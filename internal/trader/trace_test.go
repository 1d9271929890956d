package trader

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"cosm/internal/cosm"
	"cosm/internal/obs"
	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/typemgr"
)

// logBuffer collects structured log lines from every component of the
// test market; servers write from their own goroutines.
type logBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *logBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *logBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

func (l *logBuffer) waitFor(want string) bool {
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		if strings.Contains(l.String(), want) {
			return true
		}
	}
	return false
}

// startTracedTraderNode is startTraderNode with the structured logger
// wired through both the trader and its node's wire server.
func startTracedTraderNode(t *testing.T, loopName, traderID string, l *obs.Logger) (*cosm.Node, *Trader, ref.ServiceRef) {
	t.Helper()
	repo := typemgr.NewRepo()
	st, err := typemgr.FromSID(sidl.CarRentalSID())
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Define(st); err != nil {
		t.Fatal(err)
	}
	tr := New(traderID, repo, WithLogger(l.With("trader-"+traderID)))
	svc, err := NewService(tr)
	if err != nil {
		t.Fatal(err)
	}
	node := cosm.NewNode(cosm.WithNodeLogger(l.With("wire-" + traderID)))
	if err := node.Host(ServiceName, svc); err != nil {
		t.Fatal(err)
	}
	if _, err := node.ListenAndServe("loop:" + loopName); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = node.Close() })
	return node, tr, node.MustRefFor(ServiceName)
}

// One trace ID, minted at the importer, is visible in the logs of every
// hop of a federated import: the local trader, the federation partner,
// and the wire access logs in between (the acceptance walk of the
// observability tentpole).
func TestFederatedImportSharesOneTrace(t *testing.T) {
	var buf logBuffer
	logger := obs.NewLogger(&buf, "test")

	nodeB, _, refB := startTracedTraderNode(t, "trd-trace-b", "B", logger)
	nodeA, trA, refA := startTracedTraderNode(t, "trd-trace-a", "A", logger)

	setup := context.Background()
	remoteB, err := DialTrader(setup, nodeA.Pool(), refB)
	if err != nil {
		t.Fatal(err)
	}
	mustLink(t, trA, "b", remoteB)
	if _, err := remoteB.Export(setup, "CarRentalService", carRef(3), carProps("FIAT_Uno", 80, "DEM")); err != nil {
		t.Fatal(err)
	}

	// The importer mints the root trace once; everything below only
	// propagates it.
	ctx, root := obs.EnsureTrace(context.Background())
	tc, err := DialTrader(ctx, nodeB.Pool(), refA)
	if err != nil {
		t.Fatal(err)
	}
	offers, err := tc.Import(ctx, ImportRequest{Type: "CarRentalService", HopLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 1 {
		t.Fatalf("federated offers = %+v", offers)
	}

	// Both traders logged their import under the importer's trace ID.
	out := buf.String()
	var importLines []string
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "event=import") && strings.Contains(line, "trace="+root.ID) {
			importLines = append(importLines, line)
		}
	}
	if len(importLines) != 2 {
		t.Fatalf("import lines under trace %s = %d, want 2:\n%s", root.ID, len(importLines), out)
	}
	for _, comp := range []string{"component=trader-A", "component=trader-B"} {
		found := false
		for _, line := range importLines {
			if strings.Contains(line, comp) {
				found = true
			}
		}
		if !found {
			t.Errorf("no import line from %s under the shared trace:\n%s", comp, out)
		}
	}
	// Spans differ per hop — a span tree, not one flat span.
	if spanOf(importLines[0]) == spanOf(importLines[1]) {
		t.Fatalf("both hops share one span:\n%s\n%s", importLines[0], importLines[1])
	}

	// The wire access logs carry the same trace (written asynchronously
	// after the response, hence the poll).
	for _, want := range []string{"component=wire-A", "component=wire-B"} {
		if !buf.waitFor(want + " event=rpc trace=" + root.ID) {
			t.Errorf("no access log line %q under trace %s:\n%s", want, root.ID, buf.String())
		}
	}
}

// spanOf extracts the span=... token of a structured log line.
func spanOf(line string) string {
	for _, f := range strings.Fields(line) {
		if rest, ok := strings.CutPrefix(f, "span="); ok {
			return rest
		}
	}
	return ""
}

// startRecordedTraderNode is startTracedTraderNode with a per-node
// flight recorder wired through both wire directions.
func startRecordedTraderNode(t *testing.T, loopName, traderID string, rec *obs.SpanRecorder) (*cosm.Node, *Trader, ref.ServiceRef) {
	t.Helper()
	repo := typemgr.NewRepo()
	st, err := typemgr.FromSID(sidl.CarRentalSID())
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Define(st); err != nil {
		t.Fatal(err)
	}
	tr := New(traderID, repo)
	svc, err := NewService(tr)
	if err != nil {
		t.Fatal(err)
	}
	node := cosm.NewNode(
		cosm.WithNodeLog(func(string, ...any) {}),
		cosm.WithNodeRecorder(rec),
	)
	if err := node.Host(ServiceName, svc); err != nil {
		t.Fatal(err)
	}
	if _, err := node.ListenAndServe("loop:" + loopName); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = node.Close() })
	return node, tr, node.MustRefFor(ServiceName)
}

// TestFederatedFanOutBuildsOneSpanTree drives concurrent federated
// imports across a three-trader chain (importer → A → B → C), each
// node recording into its own flight recorder — as separate processes
// would — and asserts every trace's merged spans reassemble into ONE
// connected tree covering all three wire hops: the cross-process walk
// `cosmcli trace` performs against live daemons.
func TestFederatedFanOutBuildsOneSpanTree(t *testing.T) {
	recI := obs.NewSpanRecorder(256) // the importer's own client spans
	recA := obs.NewSpanRecorder(256)
	recB := obs.NewSpanRecorder(256)
	recC := obs.NewSpanRecorder(256)

	_, _, refC := startRecordedTraderNode(t, "trd-fan-c", "C", recC)
	nodeB, trB, refB := startRecordedTraderNode(t, "trd-fan-b", "B", recB)
	nodeA, trA, refA := startRecordedTraderNode(t, "trd-fan-a", "A", recA)

	setup := context.Background()
	remoteB, err := DialTrader(setup, nodeA.Pool(), refB)
	if err != nil {
		t.Fatal(err)
	}
	mustLink(t, trA, "b", remoteB)
	remoteC, err := DialTrader(setup, nodeB.Pool(), refC)
	if err != nil {
		t.Fatal(err)
	}
	mustLink(t, trB, "c", remoteC)
	// The only matching offer lives at the far end of the chain, so
	// every import must traverse all three hops.
	if _, err := remoteC.Export(setup, "CarRentalService", carRef(9), carProps("FIAT_Uno", 80, "DEM")); err != nil {
		t.Fatal(err)
	}

	importerPool := cosm.NewNode(cosm.WithNodeLog(func(string, ...any) {}), cosm.WithNodeRecorder(recI)).Pool()
	// Dial outside any trace so the describe handshake stays span-less;
	// only the Import fan-out below is traced.
	tc, err := DialTrader(setup, importerPool, refA)
	if err != nil {
		t.Fatal(err)
	}

	const importers = 4
	traces := make([]obs.Trace, importers)
	errs := make(chan error, importers)
	for i := 0; i < importers; i++ {
		ctx, root := obs.EnsureTrace(context.Background())
		traces[i] = root
		go func() {
			offers, err := tc.Import(ctx, ImportRequest{Type: "CarRentalService", HopLimit: 2})
			if err == nil && len(offers) != 1 {
				err = errors.New("federated import returned no offer")
			}
			errs <- err
		}()
	}
	for i := 0; i < importers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	// Merge each recorder's view — exactly what cosmcli trace does with
	// /debug/traces?id= responses from separate daemons.
	for _, root := range traces {
		var spans []obs.Span
		for _, rec := range []*obs.SpanRecorder{recI, recA, recB, recC} {
			// Server spans are recorded just after the response leaves;
			// poll briefly for the full six-span chain.
			spans = append(spans, rec.Trace(root.ID)...)
		}
		for deadline := time.Now().Add(2 * time.Second); len(spans) < 6 && time.Now().Before(deadline); {
			time.Sleep(5 * time.Millisecond)
			spans = spans[:0]
			for _, rec := range []*obs.SpanRecorder{recI, recA, recB, recC} {
				spans = append(spans, rec.Trace(root.ID)...)
			}
		}
		// client@importer, server@A, client@A, server@B, client@B, server@C.
		if len(spans) != 6 {
			t.Fatalf("trace %s: %d spans, want 6: %+v", root.ID, len(spans), spans)
		}
		roots := obs.BuildSpanTree(spans)
		if len(roots) != 1 {
			t.Fatalf("trace %s: %d roots, want one connected tree: %+v", root.ID, len(roots), roots)
		}
		depth, node := 0, roots[0]
		for node != nil {
			depth++
			if len(node.Children) > 1 {
				t.Fatalf("trace %s: unexpected branch: %+v", root.ID, node)
			}
			if len(node.Children) == 0 {
				node = nil
			} else {
				node = node.Children[0]
			}
		}
		if depth != 6 {
			t.Fatalf("trace %s: chain depth = %d, want 6", root.ID, depth)
		}
	}
}
