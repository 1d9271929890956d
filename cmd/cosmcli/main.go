// Command cosmcli is the command-line incarnation of the COSM generic
// client (Fig. 3): it can describe, browse, render the generated user
// interface of, and dynamically invoke any COSM service, with zero
// service-specific code.
//
// Usage:
//
//	cosmcli describe cosm://tcp:127.0.0.1:7010/CarRentalService
//	cosmcli ui       cosm://tcp:127.0.0.1:7010/CarRentalService
//	cosmcli browse   cosm://tcp:127.0.0.1:7002/cosm.browser [keyword]
//	cosmcli invoke   cosm://.../CarRentalService SelectCar \
//	                 SelectCar.selection.model=FIAT_Uno \
//	                 SelectCar.selection.days=3
//	cosmcli session  cosm://.../CarRentalService 'SelectCar a.b=c ...' 'Commit'
//	cosmcli import   cosm://.../cosm.trader CarRentalService \
//	                 -constraint 'ChargePerDay < 100' -policy min:ChargePerDay \
//	                 -hops 1 -max-peers 3 -hedge 50ms
//	cosmcli import   cosm://.../cosm.trader Vehicle \
//	                 -conformant -min-grade subtype -policy score
//	cosmcli links    cosm://.../cosm.trader list
//	cosmcli links    cosm://.../cosm.trader add munich cosm://tcp:10.0.0.2:7001/cosm.trader
//	cosmcli links    cosm://.../cosm.trader remove munich
//	cosmcli dump     cosm://.../cosm.trader > offers.json
//	cosmcli restore  cosm://.../cosm.trader offers.json
//	cosmcli stats    127.0.0.1:9100
//	cosmcli events   127.0.0.1:9100 127.0.0.1:9101 127.0.0.1:9102
//	cosmcli trace    127.0.0.1:9100 127.0.0.1:9101 4f2a90c1d06b73e8
//
// events fetches each daemon's /debug/events timeline and merges them
// into one chronological cluster view — the post-mortem of a failover:
// suspicion, candidacies, votes, the promotion, the old leader's
// rejoin, each attributed to its node. trace fetches the flight
// recorder spans for one trace ID from every listed daemon and prints
// the reassembled cross-process call tree as JSON (find recent trace
// IDs under /debug/traces on any daemon).
//
// dump writes every live offer the trader holds as a JSON document on
// stdout, in the trader's canonical durable form (the same
// representation its write-ahead journal uses). restore re-exports a
// dump at a trader — the same one after data loss, or a different one
// when migrating a market — deriving each offer's remaining lease from
// its recorded expiry and skipping offers that have already expired.
// Restored offers get fresh trader-assigned IDs.
//
// stats takes the daemon's -metrics-addr (an HTTP address, not a COSM
// reference) and prints a snapshot of its /debug/vars introspection
// document: goroutines, heap, and every cosm_* metric.
//
// The global -timeout flag (before the subcommand) bounds the whole
// command; the deadline is propagated on the wire, so overloaded or
// hung servers fail the command instead of wedging it. In the repl the
// timeout applies per invocation.
//
//	cosmcli -timeout 5s describe cosm://.../CarRentalService
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"cosm/internal/genclient"
	"cosm/internal/match"
	"cosm/internal/obs"
	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/trader"
	"cosm/internal/uiform"
	"cosm/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cosmcli:", err)
		os.Exit(1)
	}
}

func usage() error {
	return fmt.Errorf("usage: cosmcli [-timeout d] <describe|ui|browse|invoke|session|repl|import|links|dump|restore|stats|events|trace> <ref> [args...]")
}

func run(args []string) error {
	return runWithInput(args, os.Stdin)
}

func runWithInput(args []string, stdin io.Reader) error {
	global := flag.NewFlagSet("cosmcli", flag.ContinueOnError)
	timeout := global.Duration("timeout", 0, "deadline for the whole command, propagated on the wire (0 = none; per invocation in the repl)")
	if err := global.Parse(args); err != nil {
		return err
	}
	args = global.Args()
	if len(args) < 2 {
		return usage()
	}
	cmd, refText := args[0], args[1]
	if cmd == "stats" {
		// The argument is the daemon's -metrics-addr (plain HTTP), not
		// a cosm:// reference, so it must not go through ref.Parse.
		return stats(os.Stdout, refText, *timeout)
	}
	if cmd == "events" {
		return events(os.Stdout, args[1:], *timeout)
	}
	if cmd == "trace" {
		if len(args) < 3 {
			return fmt.Errorf("usage: cosmcli trace <metrics-addr...> <trace-id>")
		}
		return traceTree(os.Stdout, args[1:len(args)-1], args[len(args)-1], *timeout)
	}
	target, err := ref.Parse(refText)
	if err != nil {
		return err
	}
	rest := args[2:]

	pool := wire.NewPool()
	defer pool.Close()
	gc := genclient.New(pool)
	// The command is the importer entry point: it mints the root trace
	// that every daemon touched below logs under.
	ctx, _ := obs.EnsureTrace(context.Background())
	if *timeout > 0 && cmd != "repl" {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	switch cmd {
	case "describe":
		b, err := gc.Bind(ctx, target)
		if err != nil {
			return err
		}
		fmt.Print(b.SID().IDL())
		return nil

	case "ui":
		b, err := gc.Bind(ctx, target)
		if err != nil {
			return err
		}
		fmt.Print(b.RenderUI())
		return nil

	case "browse":
		keyword := ""
		if len(rest) > 0 {
			keyword = rest[0]
		}
		entries, err := gc.Browse(ctx, target, keyword)
		if err != nil {
			return err
		}
		if len(entries) == 0 {
			fmt.Println("no services found")
			return nil
		}
		for _, e := range entries {
			fmt.Printf("%-28s %s  (%d ops)\n", e.Name, e.Ref, len(e.SID.Ops))
			if e.SID.Doc != "" {
				fmt.Printf("    %s\n", strings.ReplaceAll(e.SID.Doc, "\n", " "))
			}
		}
		return nil

	case "invoke":
		if len(rest) < 1 {
			return fmt.Errorf("usage: cosmcli invoke <ref> <op> [path=value ...]")
		}
		b, err := gc.Bind(ctx, target)
		if err != nil {
			return err
		}
		return invokeOne(ctx, b, rest[0], rest[1:])

	case "session":
		// Each argument is one invocation: "Op path=value path=value".
		b, err := gc.Bind(ctx, target)
		if err != nil {
			return err
		}
		for _, step := range rest {
			fields := strings.Fields(step)
			if len(fields) == 0 {
				continue
			}
			if err := invokeOne(ctx, b, fields[0], fields[1:]); err != nil {
				return err
			}
		}
		return nil

	case "repl":
		b, err := gc.Bind(ctx, target)
		if err != nil {
			return err
		}
		return repl(ctx, b, stdin, *timeout)

	case "import":
		fs := flag.NewFlagSet("import", flag.ContinueOnError)
		constraint := fs.String("constraint", "", "attribute constraint expression")
		policy := fs.String("policy", "", "selection policy (first|random|score|min:P|max:P)")
		maxN := fs.Int("max", 0, "maximum offers (0 = all)")
		hops := fs.Int("hops", 0, "federation hop limit")
		maxPeers := fs.Int("max-peers", 0, "partner traders consulted per federation hop (0 = all eligible)")
		hedge := fs.Duration("hedge", 0, "query one backup peer if the scatter runs longer than this (0 = off)")
		conformant := fs.Bool("conformant", false, "also match conformant subtypes of the requested type")
		minGrade := fs.String("min-grade", "", "minimum semantic grade (exact|subtype|partial-attribute)")
		if len(rest) < 1 {
			return fmt.Errorf("usage: cosmcli import <trader-ref> <service-type> [flags]")
		}
		serviceType := rest[0]
		if err := fs.Parse(rest[1:]); err != nil {
			return err
		}
		opts := []trader.ImportOption{
			trader.Where(*constraint), trader.OrderBy(*policy),
			trader.Limit(*maxN), trader.Hops(*hops),
			trader.MaxPeers(*maxPeers), trader.Hedge(*hedge),
		}
		if *conformant {
			opts = append(opts, trader.Conformant())
		}
		if *minGrade != "" {
			g, err := match.ParseGrade(*minGrade)
			if err != nil {
				return err
			}
			opts = append(opts, trader.MinGrade(g))
		}
		tc, err := trader.DialTrader(ctx, pool, target)
		if err != nil {
			return err
		}
		matches, err := tc.ImportGraded(ctx, trader.NewImport(serviceType, opts...))
		if err != nil {
			return err
		}
		if len(matches) == 0 {
			fmt.Println("no matching offers")
			return nil
		}
		for _, m := range matches {
			grade := m.Grade.String()
			if grade == "" {
				grade = "ungraded"
			}
			fmt.Printf("%-14s %-24s %-17s %5.2f  %s\n", m.ID, m.Type, grade, m.Score, m.Ref)
			for _, name := range sortedKeys(m.Props) {
				fmt.Printf("    %s = %s\n", name, m.Props[name])
			}
		}
		return nil

	case "links":
		tc, err := trader.DialTrader(ctx, pool, target)
		if err != nil {
			return err
		}
		return links(ctx, os.Stdout, tc, rest)

	case "dump":
		tc, err := trader.DialTrader(ctx, pool, target)
		if err != nil {
			return err
		}
		return dump(ctx, os.Stdout, tc)

	case "restore":
		if len(rest) < 1 {
			return fmt.Errorf("usage: cosmcli restore <trader-ref> <dump.json|->")
		}
		tc, err := trader.DialTrader(ctx, pool, target)
		if err != nil {
			return err
		}
		var data []byte
		if rest[0] == "-" {
			data, err = io.ReadAll(stdin)
		} else {
			data, err = os.ReadFile(rest[0])
		}
		if err != nil {
			return err
		}
		return restore(ctx, os.Stdout, tc, data)

	default:
		return usage()
	}
}

// links manages a trader's federation link registry over the wire:
// list (default), add <name> <peer-ref>, remove <name>.
func links(ctx context.Context, w io.Writer, tc *trader.Client, args []string) error {
	sub := "list"
	if len(args) > 0 {
		sub = args[0]
	}
	switch sub {
	case "list":
		infos, err := tc.LinkList(ctx)
		if err != nil {
			return err
		}
		if len(infos) == 0 {
			fmt.Fprintln(w, "no federation links")
			return nil
		}
		fmt.Fprintf(w, "%-16s %-10s %-6s %-8s %-10s %s\n",
			"NAME", "STATE", "HOPS", "TYPES", "SUMMARY", "PEER")
		for _, li := range infos {
			summary := "never"
			if li.SummaryAge >= 0 {
				summary = li.SummaryAge.Round(time.Millisecond).String() + " ago"
			}
			fmt.Fprintf(w, "%-16s %-10s %-6d %-8d %-10s %s\n",
				li.Name, li.State, li.Hops, li.SummaryTypes, summary, li.PeerID)
		}
		return nil
	case "add":
		if len(args) != 3 {
			return fmt.Errorf("usage: cosmcli links <trader-ref> add <name> <peer-ref>")
		}
		peer, err := ref.Parse(args[2])
		if err != nil {
			return err
		}
		if err := tc.LinkAdd(ctx, args[1], peer); err != nil {
			return err
		}
		fmt.Fprintf(w, "linked %q -> %s\n", args[1], peer)
		return nil
	case "remove":
		if len(args) != 2 {
			return fmt.Errorf("usage: cosmcli links <trader-ref> remove <name>")
		}
		if err := tc.LinkRemove(ctx, args[1]); err != nil {
			return err
		}
		fmt.Fprintf(w, "removed link %q\n", args[1])
		return nil
	default:
		return fmt.Errorf("usage: cosmcli links <trader-ref> [list|add <name> <peer-ref>|remove <name>]")
	}
}

// dumpDoc is the dump file format: the trader's live offers in their
// canonical durable form (see trader.OfferRecord), sorted by ID.
type dumpDoc struct {
	Offers []trader.OfferRecord `json:"offers"`
}

// dump writes every live offer at the trader as JSON on w. It imports
// each registered service type unconstrained; an offer exported under a
// subtype also matches imports of its supertypes, so offers are deduped
// by their trader-assigned ID.
func dump(ctx context.Context, w io.Writer, tc *trader.Client) error {
	names, err := tc.TypeNames(ctx)
	if err != nil {
		return err
	}
	seen := map[string]bool{}
	doc := dumpDoc{Offers: []trader.OfferRecord{}}
	for _, name := range names {
		offers, err := tc.Import(ctx, trader.NewImport(name))
		if err != nil {
			return fmt.Errorf("dump type %s: %w", name, err)
		}
		for _, o := range offers {
			if seen[o.ID] {
				continue
			}
			seen[o.ID] = true
			doc.Offers = append(doc.Offers, o.Record())
		}
	}
	sort.Slice(doc.Offers, func(i, j int) bool { return doc.Offers[i].ID < doc.Offers[j].ID })
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// restore re-exports a dump at the trader in one ExportAll batch (all
// or nothing). Leased offers keep their absolute expiry instant: the
// remaining TTL is recomputed from the recorded expiry, and offers
// whose leases have already run out are skipped, not resurrected.
func restore(ctx context.Context, w io.Writer, tc *trader.Client, data []byte) error {
	var doc dumpDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	now := time.Now()
	items := make([]trader.ExportItem, 0, len(doc.Offers))
	expired := 0
	for _, rec := range doc.Offers {
		o, err := trader.OfferFromRecord(rec)
		if err != nil {
			return fmt.Errorf("restore: %w", err)
		}
		item := trader.ExportItem{Type: o.Type, Ref: o.Ref}
		if !o.Expires.IsZero() {
			ttl := o.Expires.Sub(now)
			if ttl <= 0 {
				expired++
				continue
			}
			item.TTL = ttl
		}
		for _, name := range sortedKeys(o.Props) {
			item.Props = append(item.Props, sidl.Property{Name: name, Value: o.Props[name]})
		}
		items = append(items, item)
	}
	ids := []string{}
	if len(items) > 0 {
		var err error
		ids, err = tc.ExportAll(ctx, items)
		if err != nil {
			return fmt.Errorf("restore: %w", err)
		}
	}
	fmt.Fprintf(w, "restored %d offers", len(ids))
	if expired > 0 {
		fmt.Fprintf(w, " (%d expired, skipped)", expired)
	}
	fmt.Fprintln(w)
	return nil
}

// repl is the interactive generic client of the paper's user level: the
// human browses the generated user interface and drives the service by
// hand, with the FSM restricting what is offered at each step. A
// non-zero timeout bounds each invocation (a whole-session deadline
// would expire while the human is thinking).
func repl(ctx context.Context, b *genclient.Binding, stdin io.Reader, timeout time.Duration) error {
	fmt.Printf("bound to %s (%s) — 'help' for commands\n", b.SID().ServiceName, b.Ref())
	printPrompt(b)
	scanner := bufio.NewScanner(stdin)
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		fields := strings.Fields(line)
		if len(fields) == 0 {
			printPrompt(b)
			continue
		}
		switch fields[0] {
		case "quit", "exit":
			fmt.Println("bye")
			return nil
		case "help":
			fmt.Println(`commands:
  ui                      render the generated user interface
  ops                     list operations (legal ones marked *)
  state                   show the communication state
  <Op> [path=value ...]   invoke an operation
  quit`)
		case "ui":
			fmt.Print(b.RenderUI())
		case "ops":
			allowed := map[string]bool{}
			for _, op := range b.AllowedOps() {
				allowed[op] = true
			}
			for _, op := range b.SID().Ops {
				marker := " "
				if b.AllowedOps() == nil || allowed[op.Name] {
					marker = "*"
				}
				fmt.Printf("  %s %-16s %s\n", marker, op.Name, op.Doc)
			}
		case "state":
			if s := b.State(); s != "" {
				fmt.Printf("state %s; allowed: %s\n", s, strings.Join(b.AllowedOps(), ", "))
			} else {
				fmt.Println("unrestricted protocol")
			}
		default:
			ictx, cancel := ctx, context.CancelFunc(func() {})
			if timeout > 0 {
				ictx, cancel = context.WithTimeout(ctx, timeout)
			}
			err := invokeOne(ictx, b, fields[0], fields[1:])
			cancel()
			if err != nil {
				fmt.Println("error:", err)
			}
		}
		printPrompt(b)
	}
	return scanner.Err()
}

func printPrompt(b *genclient.Binding) {
	if s := b.State(); s != "" {
		fmt.Printf("[%s] > ", s)
		return
	}
	fmt.Print("> ")
}

func invokeOne(ctx context.Context, b *genclient.Binding, op string, assignments []string) error {
	inputs := map[string]string{}
	for _, a := range assignments {
		path, value, ok := strings.Cut(a, "=")
		if !ok {
			return fmt.Errorf("argument %q is not path=value", a)
		}
		inputs[path] = value
	}
	res, err := b.InvokeForm(ctx, op, inputs)
	if err != nil {
		return err
	}
	// Return values are presented the same way the entry form presents
	// parameters (section 4.2).
	opSig, ok := b.SID().Op(op)
	if ok && (res.Value != nil || len(res.Outs) > 0) {
		fmt.Print(uiform.RenderResult(b.SID().ServiceName, opSig, res.Value, res.Outs))
	} else {
		fmt.Printf("%s => ok\n", op)
	}
	if state := b.State(); state != "" {
		fmt.Printf("  [state: %s; allowed: %s]\n", state, strings.Join(b.AllowedOps(), ", "))
	}
	return nil
}

// stats fetches a daemon's /debug/vars introspection document and
// prints it as a flat, sorted metric listing. addr is the value the
// daemon was given as -metrics-addr.
func stats(w io.Writer, addr string, timeout time.Duration) error {
	var doc map[string]any
	if err := fetchJSON(addr, "/debug/vars", timeout, &doc); err != nil {
		return err
	}

	if g, ok := doc["goroutines"]; ok {
		fmt.Fprintf(w, "%-40s %v\n", "goroutines", g)
	}
	if ms, ok := doc["memstats"].(map[string]any); ok {
		for _, k := range []string{"HeapAlloc", "HeapObjects", "NumGC"} {
			if v, ok := ms[k]; ok {
				fmt.Fprintf(w, "%-40s %v\n", "memstats."+k, v)
			}
		}
	}
	metrics, _ := doc["cosm"].(map[string]any)
	for _, name := range sortedKeys(metrics) {
		printMetric(w, name, metrics[name])
	}
	return nil
}

// fetchJSON GETs http://addr+path and decodes the response into out.
func fetchJSON(addr, path string, timeout time.Duration, out any) error {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	url := "http://" + strings.TrimPrefix(addr, "http://") + path
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%s: %w", url, err)
	}
	return nil
}

// events merges the /debug/events timelines of several daemons into one
// chronological cluster view. Unreachable daemons are reported and
// skipped — a post-mortem must work while part of the cluster is down.
func events(w io.Writer, addrs []string, timeout time.Duration) error {
	if len(addrs) == 0 {
		return fmt.Errorf("usage: cosmcli events <metrics-addr...>")
	}
	var logs [][]obs.Event
	for _, addr := range addrs {
		var doc struct {
			Events []obs.Event `json:"events"`
		}
		if err := fetchJSON(addr, "/debug/events", timeout, &doc); err != nil {
			fmt.Fprintf(w, "# %s: %v\n", addr, err)
			continue
		}
		for i := range doc.Events {
			if doc.Events[i].Node == "" {
				doc.Events[i].Node = addr
			}
		}
		logs = append(logs, doc.Events)
	}
	for _, e := range obs.MergeEvents(logs...) {
		fmt.Fprintf(w, "%s %-12s %-18s", e.Time.Format("15:04:05.000"), e.Node, e.Kind)
		for _, k := range sortedKeys(anyAttrs(e.Attr)) {
			fmt.Fprintf(w, " %s=%s", k, e.Attr[k])
		}
		fmt.Fprintln(w)
	}
	return nil
}

// anyAttrs widens a string map for sortedKeys.
func anyAttrs(m map[string]string) map[string]any {
	out := make(map[string]any, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// traceTree gathers the flight-recorder spans for one trace ID from
// every listed daemon — each holds only the hops it served — and prints
// the reassembled cross-process call tree as JSON.
func traceTree(w io.Writer, addrs []string, id string, timeout time.Duration) error {
	var spans []obs.Span
	for _, addr := range addrs {
		var doc struct {
			Spans []obs.Span `json:"spans"`
		}
		if err := fetchJSON(addr, "/debug/traces?id="+id, timeout, &doc); err != nil {
			fmt.Fprintf(os.Stderr, "cosmcli: %s: %v\n", addr, err)
			continue
		}
		for i := range doc.Spans {
			if doc.Spans[i].Node == "" {
				doc.Spans[i].Node = addr
			}
		}
		spans = append(spans, doc.Spans...)
	}
	if len(spans) == 0 {
		return fmt.Errorf("trace %s: no spans found at %s", id, strings.Join(addrs, ", "))
	}
	roots := obs.BuildSpanTree(spans)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Trace string          `json:"trace"`
		Spans int             `json:"spans"`
		Roots []*obs.SpanNode `json:"roots"`
	}{Trace: id, Spans: len(spans), Roots: roots})
}

// printMetric flattens one /debug/vars entry: scalars print directly,
// histograms become count/p50/p95/p99 lines, and vecs recurse with the
// label folded into the name.
func printMetric(w io.Writer, name string, v any) {
	m, ok := v.(map[string]any)
	if !ok {
		fmt.Fprintf(w, "%-40s %v\n", name, v)
		return
	}
	if _, isHist := m["p99"]; isHist {
		for _, q := range []string{"count", "p50", "p95", "p99"} {
			fmt.Fprintf(w, "%-40s %v\n", name+"."+q, m[q])
		}
		return
	}
	for _, label := range sortedKeys(m) {
		printMetric(w, name+"{"+label+"}", m[label])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
