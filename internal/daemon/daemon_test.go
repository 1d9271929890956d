package daemon

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"cosm/internal/cosm"
	"cosm/internal/journal"
	"cosm/internal/match"
	"cosm/internal/obs"
	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/trader/core"
	"cosm/internal/typemgr"
	"cosm/internal/wire"
)

func TestRegisterDefaultsAndParsing(t *testing.T) {
	fs := flag.NewFlagSet("d", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if f.MaxInFlight != 0 || f.MaxQueue != 0 {
		t.Fatalf("admission defaults = %+v, want off", f)
	}
	if f.QueueWait != 100*time.Millisecond || f.DrainTimeout != 10*time.Second {
		t.Fatalf("timing defaults = %+v", f)
	}

	fs = flag.NewFlagSet("d", flag.ContinueOnError)
	f = Register(fs)
	if err := fs.Parse([]string{
		"-max-inflight", "8", "-max-queue", "4",
		"-queue-wait", "50ms", "-drain-timeout", "2s",
	}); err != nil {
		t.Fatal(err)
	}
	if f.MaxInFlight != 8 || f.MaxQueue != 4 || f.QueueWait != 50*time.Millisecond || f.DrainTimeout != 2*time.Second {
		t.Fatalf("parsed = %+v", f)
	}
	if f.MetricsAddr != "" {
		t.Fatalf("MetricsAddr default = %q, want off", f.MetricsAddr)
	}
	if f.Registry == nil {
		t.Fatal("Register left Registry nil")
	}
	// admission + metrics + default flight recorder + event timeline.
	if opts := f.NodeOptions(nil); len(opts) != 4 {
		t.Fatalf("NodeOptions = %d options", len(opts))
	}
	if opts := f.NodeOptions(obs.NewLogger(&strings.Builder{}, "t")); len(opts) != 5 {
		t.Fatalf("NodeOptions with logger = %d options", len(opts))
	}

	// The flight recorder and timeline are off at zero capacity, and
	// -slow-ms adds the watchdog option.
	fs = flag.NewFlagSet("d", flag.ContinueOnError)
	f = Register(fs)
	if err := fs.Parse([]string{"-trace-buffer", "0", "-event-buffer", "0", "-slow-ms", "250"}); err != nil {
		t.Fatal(err)
	}
	if f.Spans() != nil || f.Events() != nil {
		t.Fatal("zero-capacity buffers should disable the recorder and timeline")
	}
	if opts := f.NodeOptions(nil); len(opts) != 3 {
		t.Fatalf("NodeOptions with watchdog only = %d options", len(opts))
	}
}

// The -metrics-addr flag stands up the introspection endpoints; the
// health check flips to 503 when the daemon reports unhealthy.
func TestIntrospectionEndpoint(t *testing.T) {
	fs := flag.NewFlagSet("d", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse([]string{"-metrics-addr", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
	f.Registry.Counter("cosm_test_total", "test counter").Add(3)
	healthy := true
	intro, err := f.Introspection(func() error {
		if !healthy {
			return errors.New("draining")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer intro.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + intro.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "cosm_test_total 3") {
		t.Fatalf("/metrics = %d %q", code, body)
	}
	if code, body := get("/debug/vars"); code != 200 || !strings.Contains(body, "cosm_test_total") {
		t.Fatalf("/debug/vars = %d %q", code, body)
	}
	if code, _ := get("/healthz"); code != 200 {
		t.Fatalf("/healthz healthy = %d", code)
	}
	healthy = false
	if code, _ := get("/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz draining = %d", code)
	}
}

// Without -metrics-addr, Introspection is off and nil-safe.
func TestIntrospectionDisabled(t *testing.T) {
	fs := flag.NewFlagSet("d", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	intro, err := f.Introspection(nil)
	if err != nil {
		t.Fatal(err)
	}
	if intro != nil {
		t.Fatalf("Introspection = %v, want nil when disabled", intro)
	}
	if err := intro.Close(); err != nil {
		t.Fatalf("nil Close = %v", err)
	}
}

func TestDrainShutsDownNode(t *testing.T) {
	f := &Flags{DrainTimeout: 5 * time.Second}
	node := cosm.NewNode(cosm.WithNodeLog(func(string, ...any) {}))
	endpoint, err := node.ListenAndServe("loop:daemon-drain")
	if err != nil {
		t.Fatal(err)
	}
	deregistered := false
	if err := f.Drain(node, func(ctx context.Context) error {
		if _, ok := ctx.Deadline(); !ok {
			t.Error("deregister ctx carries no deadline")
		}
		deregistered = true
		return nil
	}, func(string, ...any) {}); err != nil {
		t.Fatal(err)
	}
	if !deregistered {
		t.Fatal("deregister never ran")
	}
	// The node is down: its endpoint no longer accepts connections.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	pool := wire.NewPool()
	defer pool.Close()
	if err := cosm.Ping(ctx, pool, ref.New(endpoint, "anything")); err == nil {
		t.Fatal("node still serving after Drain")
	}
}

// A failing deregistration is reported but must not abort the drain:
// a dead registry cannot be allowed to prevent local cleanup.
func TestDrainDeregistrationErrorIsNonFatal(t *testing.T) {
	f := &Flags{DrainTimeout: 5 * time.Second}
	node := cosm.NewNode(cosm.WithNodeLog(func(string, ...any) {}))
	if _, err := node.ListenAndServe("loop:daemon-drain-err"); err != nil {
		t.Fatal(err)
	}
	var logged strings.Builder
	err := f.Drain(node, func(context.Context) error {
		return errors.New("registry unreachable")
	}, func(format string, args ...any) {
		fmt.Fprintf(&logged, format, args...)
	})
	if err != nil {
		t.Fatalf("Drain = %v, want nil despite deregistration failure", err)
	}
	if !strings.Contains(logged.String(), "registry unreachable") {
		t.Fatalf("deregistration failure not logged: %q", logged.String())
	}
}

func TestDrainNilDeregister(t *testing.T) {
	f := &Flags{DrainTimeout: 5 * time.Second}
	node := cosm.NewNode(cosm.WithNodeLog(func(string, ...any) {}))
	if _, err := node.ListenAndServe("loop:daemon-drain-nil"); err != nil {
		t.Fatal(err)
	}
	if err := f.Drain(node, nil, func(string, ...any) {}); err != nil {
		t.Fatal(err)
	}
}

// TestServeDrainsOnce drives the skeleton every daemon shares: Serve
// hosts and listens, /healthz turns 503 once the node drains, and the
// journal's drain-time Sync runs exactly once — observed on a disk whose
// first fsync fails, where every Sync call would log its own error and
// the failure must not abort the drain.
func TestServeDrainsOnce(t *testing.T) {
	fs := flag.NewFlagSet("d", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse([]string{"-metrics-addr", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
	inj := journal.NewFaultInjector().FailFrom(journal.FaultFsync, 1, errors.New("disk on fire"))
	j, err := journal.Open(t.TempDir(), journal.Options{Fsync: journal.FsyncNever, FaultHook: inj.Hook()})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Start(func() ([]byte, error) { return []byte("{}"), nil }); err != nil {
		t.Fatal(err)
	}
	sid, err := sidl.Parse("module Tiny { interface COSM_Operations { void Nop(); }; };")
	if err != nil {
		t.Fatal(err)
	}
	svc, err := cosm.NewService(sid)
	if err != nil {
		t.Fatal(err)
	}

	var logged bytes.Buffer
	defer log.SetOutput(log.Writer())
	log.SetOutput(&logged)
	node, stop, err := f.Serve("loop:daemon-serve", nil, j, map[string]*cosm.Service{"Tiny": svc})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	if err := cosm.Ping(context.Background(), node.Pool(), node.MustRefFor("Tiny")); err != nil {
		t.Fatalf("hosted service does not answer: %v", err)
	}
	_, after, ok := strings.Cut(logged.String(), "metrics at http://")
	if !ok {
		t.Fatalf("Serve did not announce the metrics endpoint: %q", logged.String())
	}
	healthz := "http://" + strings.TrimSuffix(strings.TrimSpace(after), "/metrics") + "/healthz"
	status := func() int {
		resp, err := http.Get(healthz)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := status(); code != http.StatusOK {
		t.Fatalf("/healthz before the drain = %d", code)
	}

	if _, err := j.Append([]byte("unsynced")); err != nil {
		t.Fatal(err)
	}
	if err := f.Drain(node, nil, t.Logf); err != nil {
		t.Fatalf("a failed drain-time sync aborted the drain: %v", err)
	}
	if code := status(); code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz after the drain began = %d, want 503", code)
	}
	if n := strings.Count(logged.String(), "journal sync on drain"); n != 1 || inj.Count(journal.FaultFsync) != 1 {
		t.Fatalf("drain-time Sync logged %d failures over %d fsync attempts, want exactly one of each:\n%s",
			n, inj.Count(journal.FaultFsync), logged.String())
	}

	// A service that cannot be hosted fails Serve before anything listens.
	if _, _, err := f.Serve("loop:daemon-serve-nil", nil, nil, map[string]*cosm.Service{"Nil": nil}); err == nil {
		t.Fatal("Serve hosted a nil service")
	}
}

// metricsGolden is every cosm_client_*, cosm_server_* and cosm_journal_*
// family as "name type label help" ("-" for an unlabelled family),
// recorded at the commit before PR 23 rebound them, plus the
// cosm_trader_* families the market state (core.New) registers: a
// rename, a retyped family or a reworded help string breaks dashboards
// and `cosmcli stats` greps, so it has to show up here first.
var metricsGolden = []string{
	"cosm_client_breaker_transitions_total counter to Circuit breaker state transitions by new state.",
	"cosm_client_breakers_open gauge - Endpoints whose circuit breaker is currently open.",
	"cosm_client_call_seconds histogram endpoint Per-attempt RPC latency by endpoint (dial included).",
	"cosm_client_calls_total counter status RPC attempts by outcome status.",
	"cosm_client_conn_reuse_total counter - Gets served by an already-pooled connection.",
	"cosm_client_dial_failures_total counter - Pool dial failures.",
	"cosm_client_dials_total counter - Pool dial attempts.",
	"cosm_client_failfast_total counter - Requests rejected immediately by an open circuit breaker.",
	"cosm_client_retries_total counter - Extra call attempts beyond the first.",
	"cosm_client_sheds_total counter - StatusOverloaded responses received.",
	"cosm_journal_append_bytes_total counter - Bytes appended to the write-ahead log (framing included).",
	"cosm_journal_appends_total counter - Records appended to the write-ahead log.",
	"cosm_journal_compactions_total counter - Log-into-snapshot compactions completed.",
	"cosm_journal_fsync_errors_total counter - fsync failures; each latches the journal fail-stop.",
	"cosm_journal_fsync_seconds histogram - fsync latency in seconds.",
	"cosm_journal_fsyncs_total counter - fsync calls issued by the journal.",
	"cosm_journal_records_recovered counter - Records replayed from the log during recovery.",
	"cosm_journal_records_truncated counter - Records cut at a torn or corrupt log tail during recovery.",
	"cosm_journal_recovery_seconds gauge - Duration of the last boot recovery (open + replay).",
	"cosm_journal_snapshots_discarded_total counter - Corrupt snapshots ignored during recovery (full log replay instead).",
	"cosm_server_deadline_expired_total counter - Requests rejected with an already-expired deadline.",
	"cosm_server_inflight_requests gauge - Requests dispatched and not yet responded to.",
	"cosm_server_panics_total counter - Handler panics converted into StatusAppError.",
	"cosm_server_queue_wait_seconds histogram - Admission queue wait before a handler slot freed.",
	"cosm_server_request_seconds histogram op Handler latency by service/op.",
	"cosm_server_responses_total counter status Responses sent by status.",
	"cosm_server_sheds_total counter - Requests shed with StatusOverloaded.",
	"cosm_server_slow_requests_total counter - Requests exceeding the slow-request watchdog threshold.",
	"cosm_trader_constraint_cache_evicted_total counter - Compiled constraints evicted from the full constraint cache by newer ones.",
	"cosm_trader_constraint_cache_retained gauge - Compiled constraints the constraint cache currently holds.",
	"cosm_trader_constraint_cache_total counter outcome Compiled-constraint cache lookups by outcome.",
	"cosm_trader_index_lookups_total counter kind Type-bucket match passes by index kind (eq, range, scan, ordered, linear).",
	"cosm_trader_index_snapshot_rebuilds_total counter - Type snapshots built from scratch, on a type's first read; writes derive them.",
}

func TestMetricsFamiliesGolden(t *testing.T) {
	fs := flag.NewFlagSet("d", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse([]string{
		"-metrics-addr", "127.0.0.1:0", "-trace-buffer", "0", "-event-buffer", "0",
		"-data-dir", t.TempDir(), "-fsync", "always", "-max-inflight", "4",
	}); err != nil {
		t.Fatal(err)
	}
	j, err := f.OpenJournal()
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Start(func() ([]byte, error) { return []byte("{}"), nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append([]byte("record")); err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}

	sid, err := sidl.Parse("module Tiny { interface COSM_Operations { void Nop(); }; };")
	if err != nil {
		t.Fatal(err)
	}
	svc, err := cosm.NewService(sid)
	if err != nil {
		t.Fatal(err)
	}
	node := cosm.NewNode(append(f.NodeOptions(nil), cosm.WithNodeLog(func(string, ...any) {}))...)
	defer node.Close()
	if err := node.Host("Tiny", svc); err != nil {
		t.Fatal(err)
	}
	endpoint, err := node.ListenAndServe("loop:daemon-golden")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := cosm.Ping(ctx, node.Pool(), ref.New(endpoint, "Tiny")); err != nil {
		t.Fatal(err)
	}
	// Eight failed dials open the dead endpoint's breaker: one transition.
	for i := 0; i < wire.DefaultBreakerPolicy().Threshold; i++ {
		if _, err := node.Pool().Get(ctx, "loop:daemon-golden-dead"); err == nil {
			t.Fatal("dial to an endpoint nobody listens on succeeded")
		}
	}

	// traderd hands the same registry to its market state, whose index
	// and cache families one import brings out, labels included.
	st := core.New(typemgr.NewRepo(), core.Options{Metrics: f.Registry, ConstraintCacheSize: 4})
	st.Apply(&core.Mutation{Op: core.OpExport, Offers: []*core.Offer{{ID: "o1", Type: "Tiny", Ref: ref.New(endpoint, "Tiny")}}})
	q, err := st.Prepare("Tiny", "", "", 0, match.GradeNone)
	if err != nil {
		t.Fatal(err)
	}
	if ms := st.Import(q, nil, time.Now()); len(ms) != 1 {
		t.Fatalf("import matched %d offers, want 1", len(ms))
	}

	intro, err := f.Introspection(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer intro.Close()
	resp, err := http.Get("http://" + intro.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	// A family is "# HELP name help", "# TYPE name type", then its
	// series; the first label of the first series is the family's own
	// (a histogram's le comes second).
	var got []string
	var name, help, typ string
	label := "-"
	flush := func() {
		if name != "" {
			got = append(got, name+" "+typ+" "+label+" "+help)
		}
		label = "-"
	}
	for _, line := range strings.Split(string(body), "\n") {
		switch fields := strings.SplitN(line, " ", 4); {
		case len(fields) == 4 && fields[1] == "HELP":
			flush()
			name, help = fields[2], fields[3]
		case len(fields) == 4 && fields[1] == "TYPE":
			typ = fields[3]
		case label == "-":
			if open, eq := strings.Index(line, "{"), strings.Index(line, "="); open >= 0 && eq > open && !strings.HasPrefix(line[open+1:], "le=") {
				label = line[open+1 : eq]
			}
		}
	}
	flush()
	sort.Strings(got)
	if strings.Join(got, "\n") != strings.Join(metricsGolden, "\n") {
		t.Fatalf("/metrics families changed:\n got:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(metricsGolden, "\n"))
	}
}
