// Command cosmbench is the fixed, comparable performance record of
// COSM (ROADMAP item 1): four closed-loop workloads measured from
// outside through public functions only, each run replicated over six
// freshly built fixtures so that every reported figure is a median of
// units spread across the whole run. See README.md in this directory.
//
//	cosmbench --workload import_wire --seed 1 --seconds 24 --trace 0
//	cosmbench -quick            every workload, one short segment
//	cosmbench -aa 5             A/A: is every end-to-end metric resolvable?
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"cosm/internal/obs"
	"cosm/internal/trader"
)

const (
	// segments is the number of fresh fixtures per run. Cut slices,
	// never segments: six is what lets a median shrug off a neighbour
	// episode that spoils one or two of them.
	segments = 6
	// A segment stops when its share of --seconds is spent, within
	// these limits; the per-workload sliceOps are sized for about ten
	// slices per segment at the default --seconds.
	minSlices = 3
	maxSlices = 30
	// tracedSlices bounds the traced segment so its spans fit the
	// recorder.
	tracedSlices   = 6
	recorderSpans  = 1 << 17
	defaultSeconds = 24
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		wlName  = flag.String("workload", "", "workload to run (see BENCHMARK.json); empty with -quick runs all")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Int("seconds", defaultSeconds, "measured seconds per run")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
		quick   = flag.Bool("quick", false, "1 segment x 2 short slices per workload (smoke test)")
		aa      = flag.Int("aa", 0, "A/A mode: run every workload N times twice over and compare")
		outDir  = flag.String("out", "bench/out", "directory for scratch files and trace output")
	)
	flag.Parse()
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	if *aa > 0 {
		os.Exit(runAA(*aa, *seed, *seconds))
	}
	names := []string{*wlName}
	if *wlName == "" {
		if !*quick {
			fmt.Fprintln(os.Stderr, "cosmbench: --workload is required (or -quick, or -aa N)")
			os.Exit(2)
		}
		names = names[:0]
		for _, c := range constructors {
			names = append(names, c.name)
		}
	}
	code := 0
	for _, name := range names {
		res, err := runOne(os.Stdout, name, *seed, *seconds, *trace == 1, *quick, *outDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cosmbench:", err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cosmbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		if !res.Correct {
			code = 1
		}
	}
	os.Exit(code)
}

// runOne runs one workload and prints its human-readable report; the
// caller prints the result line.
func runOne(w io.Writer, name string, seed int64, seconds int, traced, quick bool, outDir string) (*result, error) {
	wl, err := workloadByName(seed, name)
	if err != nil {
		return nil, err
	}
	runID := fmt.Sprintf("%d-%d", os.Getpid(), time.Now().UnixNano()%1e6)
	e := &env{outDir: outDir, runID: runID, scratch: filepath.Join(outDir, "tmp-"+runID)}
	if err := os.MkdirAll(e.scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.scratch)

	ctx := context.Background()
	wall := time.Now()
	var res *result
	var info map[string]any
	if traced {
		res, info, err = runTraced(ctx, wl, e, seed, seconds, quick)
	} else {
		res, info, err = runEndToEnd(ctx, wl, e, seconds, quick)
	}
	if err != nil {
		return nil, err
	}
	// Self-describing header: two result files can be compared without
	// knowing how they were made.
	fmt.Fprintf(w, "# cosmbench workload=%s seed=%d seconds=%d trace=%t quick=%t %s nproc=%d GOMAXPROCS=%d slice_ops=%d wall_s=%.1f",
		name, seed, seconds, traced, quick, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), wl.sliceOps, time.Since(wall).Seconds())
	keys := make([]string, 0, len(info))
	for k := range info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, " %s=%v", k, info[k])
	}
	fmt.Fprintln(w)
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "#   %-40s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	return res, nil
}

func plan(seconds, nSegments int, quick bool) segPlan {
	if quick {
		return segPlan{minSlices: 2, maxSlices: 2, opsDiv: 8}
	}
	return segPlan{budget: time.Duration(seconds) * time.Second / time.Duration(nSegments),
		minSlices: minSlices, maxSlices: maxSlices, opsDiv: 1}
}

// runEndToEnd is the untraced run: segments x slices, end-to-end
// metrics only.
func runEndToEnd(ctx context.Context, wl *workload, e *env, seconds int, quick bool) (*result, map[string]any, error) {
	n := segments
	if quick {
		n = 1
	}
	segs := make([]segResult, 0, n)
	for s := 0; s < n; s++ {
		r, err := runSegment(ctx, wl, e, s, plan(seconds, n, quick), false)
		if err != nil {
			return nil, nil, err
		}
		if r.firstErr != nil {
			fmt.Fprintf(os.Stderr, "cosmbench: %s segment %d: first failure: %v\n", wl.name, s, r.firstErr)
		}
		segs = append(segs, r)
	}
	res := &result{Metrics: endToEnd(segs)}
	ops, slices, samples := 0, 0, 0
	for _, s := range segs {
		res.Attempted += s.attempted
		res.Failed += s.failed
		ops += s.ops
		slices += len(s.slices)
		samples += len(s.primary)
	}
	res.Correct = res.Failed == 0
	return res, map[string]any{"segments": n, "slices": slices, "ops": ops, "samples": samples}, nil
}

// endToEnd turns segment results into the seven end-to-end metrics.
// Every timing is a median over replicated units — segments for set-up,
// latency percentiles and heap, slices for throughput and CPU — so a
// neighbour episode that spoils a minority of units moves nothing.
func endToEnd(segs []segResult) map[string]metric {
	var setups, p50s, heaps, tputs, cpus []float64
	var mallocs, bytes uint64
	ops := 0
	for _, s := range segs {
		setups = append(setups, s.setup.Seconds())
		lat := nsToUs(s.primary)
		sort.Float64s(lat)
		p50s = append(p50s, sortedPercentile(lat, 50))
		heaps = append(heaps, float64(s.heapLive)/(1<<20))
		for _, sl := range s.slices {
			tputs = append(tputs, float64(sl.ops)/sl.wall.Seconds())
			cpus = append(cpus, usOf(sl.cpu)/float64(sl.ops))
		}
		mallocs += s.mallocs
		bytes += s.bytes
		ops += s.ops
	}
	return map[string]metric{
		"setup_s":          {median(setups), "s"},
		"p50_us":           {median(p50s), "us"},
		"throughput_ops_s": {median(tputs), "ops/s"},
		"cpu_us_per_op":    {median(cpus), "us"},
		"allocs_per_op":    {float64(mallocs) / float64(ops), "count"},
		"alloc_kb_per_op":  {float64(bytes) / 1024 / float64(ops), "KB"},
		"heap_live_mb":     {median(heaps), "MB"},
	}
}

// runTraced is the separate traced run: the ladder, one untraced
// segment for reference, one segment with the recorder, the registry
// and the counting dialer switched on through public options.
func runTraced(ctx context.Context, wl *workload, e *env, seed int64, seconds int, quick bool) (*result, map[string]any, error) {
	calls := ladderCalls
	if quick {
		calls /= 10
	}
	l, err := runLadder(ctx, seed, e.scratch, calls)
	if err != nil {
		return nil, nil, err
	}
	p := plan(seconds, 4, quick)
	if p.maxSlices > tracedSlices {
		p.maxSlices = tracedSlices
	}
	plain, err := runSegment(ctx, wl, e, 0, p, false)
	if err != nil {
		return nil, nil, err
	}
	e.rec, e.reg, e.dial = obs.NewSpanRecorder(recorderSpans), obs.NewRegistry(), &countingDialer{}
	tr, err := tracedSegment(ctx, wl, e, p)
	if err != nil {
		return nil, nil, err
	}
	m, note := perLayer(wl, l, plain, tr)
	res := &result{Metrics: m}
	for _, s := range []segResult{plain, tr.seg} {
		res.Attempted += s.attempted
		res.Failed += s.failed
		if s.firstErr != nil {
			fmt.Fprintf(os.Stderr, "cosmbench: %s traced run: first failure: %v\n", wl.name, s.firstErr)
		}
	}
	res.Correct = res.Failed == 0

	tf := traceFile{Workload: wl.name, Seed: seed, Metrics: map[string]float64{}, Env: map[string]any{
		"go": runtime.Version(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"seconds": seconds, "slice_ops": wl.sliceOps, "ops": tr.seg.ops,
	}}
	for k, v := range m {
		tf.Metrics[k] = v.Value
	}
	if err := writeTraceFile(e.outDir, tf, tr.seg.spans, tr.recorded); err != nil {
		return nil, nil, err
	}
	info := map[string]any{"ops": tr.seg.ops, "spans": len(tr.recorded) + len(tr.seg.spans)}
	if note != "" {
		info["ladder"] = strconv.Quote(note)
	}
	return res, info, nil
}

// tracedResult is the traced segment plus the counters read around it.
type tracedResult struct {
	seg      segResult
	recorded []obs.Span
	conn     connCounts
	served   uint64
	shed     uint64
	expired  uint64
	retries  uint64
	dials    uint64
	fed      trader.FedStats
	reg      *obs.Registry
}

func tracedSegment(ctx context.Context, wl *workload, e *env, p segPlan) (tracedResult, error) {
	tr := tracedResult{reg: e.reg}
	var err error
	// Counters are read in the fixture's close path, while its nodes
	// still exist: wrap build so the fixture reports before teardown.
	inner := *wl
	inner.build = func(e *env, seg int) (fixture, error) {
		f, err := wl.build(e, seg)
		if err != nil {
			return nil, err
		}
		return &reportingFixture{fixture: f, e: e, out: &tr}, nil
	}
	tr.seg, err = runSegment(ctx, &inner, e, 1, p, true)
	tr.recorded = e.rec.Snapshot()
	return tr, err
}

// reportingFixture reads the wire and federation counters of a traced
// fixture just before it is torn down.
type reportingFixture struct {
	fixture
	e   *env
	out *tracedResult
}

func (r *reportingFixture) close() {
	r.out.conn = r.e.dial.counts()
	for _, n := range r.e.nodes {
		st := n.ServerStats()
		r.out.served += st.Served
		r.out.shed += st.Shed
		r.out.expired += st.Expired
	}
	for _, p := range r.e.pools {
		st := p.Stats()
		r.out.retries += st.Retries
		r.out.dials += st.Dials
	}
	if ff, ok := r.fixture.(*fedFixture); ok {
		r.out.fed = ff.importer.FedStats()
	}
	r.fixture.close()
}

// perLayerUnits lists every per_layer metric of BENCHMARK.json with its
// unit, grouped by layer (= module name). A traced run emits exactly
// these, on every workload; rows a workload does not exercise report 0
// (mesh.* off federated_import, wire counters on the in-process
// workloads, the ladder residual off import_wire).
var perLayerUnits = [][2]string{
	{"xcode.marshal_us", "us"}, {"xcode.unmarshal_us", "us"},
	{"xcode.marshal_allocs", "count"}, {"xcode.unmarshal_allocs", "count"},

	{"wire.echo_loop_us", "us"}, {"wire.echo_tcp_us", "us"}, {"wire.echo_allocs", "count"},
	{"wire.bytes_per_op", "B"}, {"wire.writes_per_op", "count"}, {"wire.reads_per_op", "count"},
	{"wire.served", "count"}, {"wire.shed", "count"}, {"wire.expired", "count"},
	{"wire.retries", "count"}, {"wire.dials", "count"}, {"wire.transit_us", "us"},

	{"cosm.invoke_stub_us", "us"}, {"cosm.invoke_stub_allocs", "count"}, {"cosm.server_us", "us"},

	{"trader.import_local_us", "us"}, {"trader.import_local_allocs", "count"},
	{"trader.export_local_us", "us"}, {"trader.withdraw_local_us", "us"},
	{"trader.constraint_compile_us", "us"}, {"trader.constraint_match_us", "us"},
	{"trader.service_conv_us", "us"},
	{"trader.import_cache_hit_ratio", "ratio"}, {"trader.constraint_cache_hit_ratio", "ratio"},
	{"trader.index_lookups_eq_per_op", "count"}, {"trader.index_lookups_range_per_op", "count"},
	{"trader.index_lookups_scan_per_op", "count"}, {"trader.snapshot_rebuilds_per_write", "count"},
	{"trader.matches_per_import", "count"}, {"trader.repl_catchup_us_per_record", "us"},

	{"typemgr.closure_us", "us"}, {"typemgr.check_offer_us", "us"}, {"match.grade_closure_us", "us"},

	{"journal.append_us", "us"}, {"journal.bytes_per_record", "B"}, {"journal.replay_us_per_record", "us"},

	{"mesh.peers_per_op", "count"}, {"mesh.routed_ratio", "ratio"}, {"mesh.hedged_per_op", "count"},
	{"mesh.peer_call_us", "us"}, {"mesh.scatter_self_us", "us"},

	{"sidl.parse_us", "us"}, {"uiform.generate_us", "us"}, {"genclient.bind_us", "us"},
	{"genclient.invoke_form_us", "us"}, {"browser.search_us", "us"},

	{"client.p50_us", "us"}, {"client.p90_us", "us"}, {"client.p99_us", "us"}, {"client.max_us", "us"},
	{"client.write_p50_us", "us"},
	{"client.self_us", "us"}, {"client.samples", "count"}, {"client.slice_cv", "ratio"},
	{"client.gc_cycles", "count"}, {"client.gc_pause_ms", "ms"}, {"client.ladder_residual", "ratio"},
	{"obs.trace_overhead_ratio", "ratio"},
}

// perLayer assembles the per_layer metrics: the ladder rows, the
// counters read off the traced segment, the self times derived from
// its spans, and the client's view of the untraced reference segment.
func perLayer(wl *workload, l ladder, plain segResult, tr tracedResult) (map[string]metric, string) {
	v := map[string]float64{}
	for name, x := range l {
		v[name] = x
	}

	ops := float64(tr.seg.ops)
	v["wire.bytes_per_op"] = float64(tr.conn.bytes) / ops
	v["wire.writes_per_op"] = float64(tr.conn.writes) / ops
	v["wire.reads_per_op"] = float64(tr.conn.reads) / ops
	v["wire.served"] = float64(tr.served)
	v["wire.shed"] = float64(tr.shed)
	v["wire.expired"] = float64(tr.expired)
	v["wire.retries"] = float64(tr.retries)
	v["wire.dials"] = float64(tr.dials)

	// trader counters come from the obs.Registry handed to
	// trader.WithMetrics: the same families /metrics serves.
	reg := tr.reg
	vec := func(name, label string) map[string]uint64 { return reg.CounterVec(name, "", label).Snapshot() }
	hitRatio := func(c map[string]uint64) float64 {
		if t := c["hit"] + c["miss"]; t > 0 {
			return float64(c["hit"]) / float64(t)
		}
		return 0
	}
	v["trader.import_cache_hit_ratio"] = hitRatio(vec("cosm_trader_import_cache_total", "outcome"))
	v["trader.constraint_cache_hit_ratio"] = hitRatio(vec("cosm_trader_constraint_cache_total", "outcome"))
	if imports := float64(reg.CounterVec("cosm_trader_imports_total", "", "type").Total()); imports > 0 {
		for kind, n := range vec("cosm_trader_index_lookups_total", "kind") {
			v["trader.index_lookups_"+kind+"_per_op"] = float64(n) / imports
		}
	}
	// Building a fixture exports too; only churn writes while it runs.
	writes := float64(reg.Counter("cosm_trader_exports_total", "").Value() + reg.Counter("cosm_trader_withdrawals_total", "").Value())
	if wl.name == "market_churn" && writes > 0 {
		v["trader.snapshot_rebuilds_per_write"] = float64(reg.Counter("cosm_trader_index_snapshot_rebuilds_total", "").Value()) / writes
	}
	if mh := reg.Histogram("cosm_trader_import_matches", "", obs.CountBuckets).Snapshot(); mh.Count > 0 {
		v["trader.matches_per_import"] = mh.Sum / float64(mh.Count)
	}

	st := deriveSpanStats(tr.seg.spans, tr.recorded)
	if fedOps := float64(tr.fed.Imports); fedOps > 0 {
		v["mesh.peers_per_op"] = float64(tr.fed.PeersAsked) / fedOps
		v["mesh.routed_ratio"] = float64(tr.fed.Routed) / fedOps
		v["mesh.hedged_per_op"] = float64(tr.fed.Hedged) / fedOps
		v["mesh.peer_call_us"] = median(st.peerCall)
		v["mesh.scatter_self_us"] = median(st.scatterSelf)
	}
	v["client.self_us"] = median(st.clientSelf)
	v["wire.transit_us"] = median(st.transit)
	v["cosm.server_us"] = median(st.server)

	lat := nsToUs(plain.primary)
	sort.Float64s(lat)
	p50 := sortedPercentile(lat, 50)
	v["client.p50_us"] = p50
	v["client.p90_us"] = sortedPercentile(lat, 90)
	v["client.p99_us"] = sortedPercentile(lat, 99)
	v["client.max_us"] = sortedPercentile(lat, 100)
	v["client.write_p50_us"] = median(nsToUs(plain.secondary))
	v["client.samples"] = float64(len(lat))
	var tputs []float64
	for _, sl := range plain.slices {
		tputs = append(tputs, float64(sl.ops)/sl.wall.Seconds())
	}
	v["client.slice_cv"] = cv(tputs)
	v["client.gc_cycles"] = float64(plain.gcCycles)
	v["client.gc_pause_ms"] = float64(plain.gcPause) / float64(time.Millisecond)
	v["obs.trace_overhead_ratio"] = median(nsToUs(tr.seg.primary)) / p50

	// The import_wire ladder must add up to what the workload measures:
	// everything but the trader service (the stub call over TCP), the
	// import itself, and what the service adds around it (priced on
	// loop:, so no row of the sum was measured on the workload's path).
	note := ""
	if wl.name == "import_wire" {
		sum := l["cosm.invoke_stub_us"] + l["trader.import_local_us"] + l["trader.service_conv_us"]
		v["client.ladder_residual"] = (p50 - sum) / p50
		note = fmt.Sprintf("cosm.invoke_stub %.1f + trader.import_local %.1f + trader.service_conv %.1f = %.1f us against import_wire p50 %.1f us: residual %+.1f%%",
			l["cosm.invoke_stub_us"], l["trader.import_local_us"], l["trader.service_conv_us"], sum, p50, 100*v["client.ladder_residual"])
	}

	m := make(map[string]metric, len(perLayerUnits))
	for _, nu := range perLayerUnits {
		m[nu[0]] = metric{v[nu[0]], nu[1]}
	}
	return m, note
}
