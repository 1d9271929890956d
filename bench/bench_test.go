package main

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestEstimators(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, tc := range []struct{ p, want float64 }{{5, 15}, {30, 20}, {40, 20}, {50, 35}, {99, 50}, {100, 50}} {
		if got := sortedPercentile(xs, tc.p); got != tc.want {
			t.Errorf("sortedPercentile(%v, %v) = %v, want %v", xs, tc.p, got, tc.want)
		}
	}
	// 1000 samples: p99 is the 990th smallest, leaving ten beyond it.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := sortedPercentile(big, 99); got != 990 {
		t.Errorf("sortedPercentile(1..1000, 99) = %v, want 990", got)
	}
	if got := sortedPercentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	// is [3.5, 24.0, 160.0] in Python.
	q1, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if !near(q1, 3.5) || !near(q3, 160) {
		t.Errorf("quartiles = %v, %v, want 3.5, 160", q1, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) is [1.5, 3.0, 4.5].
	q1, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if !near(q1, 1.5) || !near(q3, 4.5) {
		t.Errorf("quartiles = %v, %v, want 1.5, 4.5", q1, q3)
	}
	// stdev([2, 4, 4, 4, 5, 5, 7, 9]) = 2.138089935..., mean 5.
	if got := cv([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !near(got, 2.13808993529939517/5) {
		t.Errorf("cv = %v", got)
	}
	if worse(100, 110, "lower") <= 0 || worse(100, 110, "higher") >= 0 {
		t.Error("worse: direction ignored")
	}
}

// The slice and segment medians are what make a run shrug off a
// neighbour episode: spoil a minority of units and nothing moves.
func TestEndToEndIgnoresAMinorityOfSpoiledUnits(t *testing.T) {
	mk := func(spoiled int) []segResult {
		segs := make([]segResult, segments)
		for i := range segs {
			slow := time.Duration(1)
			if i < spoiled {
				slow = 3
			}
			s := segResult{setup: slow * 100 * time.Millisecond, ops: 5000, mallocs: 50_000, bytes: 5_000_000, heapLive: 1 << 20}
			for k := 0; k < 1000; k++ {
				s.primary = append(s.primary, int64(slow)*(100_000+int64(k)))
			}
			for k := 0; k < 10; k++ {
				s.slices = append(s.slices, sliceStat{ops: 500, wall: slow * 50 * time.Millisecond, cpu: slow * 40 * time.Millisecond})
			}
			segs[i] = s
		}
		return segs
	}
	clean, dirty := endToEnd(mk(0)), endToEnd(mk(2))
	for _, name := range []string{"p50_us", "throughput_ops_s", "cpu_us_per_op", "setup_s"} {
		if clean[name].Value != dirty[name].Value {
			t.Errorf("%s moved from %v to %v with 2 of %d segments spoiled", name, clean[name].Value, dirty[name].Value, segments)
		}
	}
	if got := clean["allocs_per_op"].Value; got != 10 {
		t.Errorf("allocs_per_op = %v, want 10", got)
	}
}

func TestOpSequenceIsAFunctionOfTheSeed(t *testing.T) {
	a, b, c := workloads(1), workloads(1), workloads(2)
	for i := range a {
		ha, hb, hc := opHash(a[i], segments, 500), opHash(b[i], segments, 500), opHash(c[i], segments, 500)
		if ha != hb {
			t.Errorf("%s: seed 1 hashed to %x and %x", a[i].name, ha, hb)
		}
		if ha == hc {
			t.Errorf("%s: seeds 1 and 2 both hashed to %x", a[i].name, ha)
		}
	}
	// Segments of one run must not replay each other either.
	wl := a[0]
	if opHash(wl, 1, 500) == opHashFrom(wl, 1, 500) {
		t.Errorf("%s: segments 0 and 1 share an op sequence", wl.name)
	}
}

// opHashFrom hashes the first n ops of segment seg alone.
func opHashFrom(wl *workload, seg, n int) uint64 {
	shifted := *wl
	shifted.newGen = func(s int) opGen { return wl.newGen(s + seg) }
	return opHash(&shifted, 1, n)
}

var nameGrammar = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitGrammar = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// BENCHMARK.json is the contract; the program must emit exactly what it
// promises, and what it says about sizes must be what the code runs.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	wls := workloads(1)
	if len(spec.Workloads) != len(wls) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(wls))
	}
	sizes := map[string][]int{
		"import_wire":      {wireOffers, wireVariants, wireSliceOps},
		"import_match":     {matchOffers, matchQueries, matchSliceOps},
		"market_churn":     {churnOffers, churnSliceOps},
		"federated_import": {fedPeers, fedOwnOffers, fedCommon, fedSliceOps},
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameGrammar.MatchString(name) {
			t.Errorf("name %q is outside the grammar", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range spec.Workloads {
		unique(w.Name)
		if w.Name != wls[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, wls[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		for _, n := range sizes[w.Name] {
			if !regexp.MustCompile(fmt.Sprintf(`\b%d\b`, n)).MatchString(w.Why) {
				t.Errorf("%s: why does not quote the size %d the program uses", w.Name, n)
			}
		}
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program defaults to %d", spec.RunSeconds, defaultSeconds)
	}

	e2e := endToEnd([]segResult{{slices: []sliceStat{{ops: 1, wall: 1, cpu: 1}}, ops: 1}})
	if len(spec.EndToEnd) != len(e2e) {
		t.Errorf("%d end_to_end metrics in BENCHMARK.json, the program emits %d", len(spec.EndToEnd), len(e2e))
	}
	setup := false
	for _, m := range spec.EndToEnd {
		unique(m.Name)
		got, ok := e2e[m.Name]
		if !ok {
			t.Errorf("end_to_end %s is never emitted", m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("end_to_end %s: unit %q in BENCHMARK.json, %q emitted", m.Name, m.Unit, got.Unit)
		}
		if !unitGrammar.MatchString(m.Unit) {
			t.Errorf("unit %q is outside the grammar", m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}

	if len(spec.PerLayer) != len(perLayerUnits) {
		t.Errorf("%d per_layer metrics in BENCHMARK.json, the program emits %d", len(spec.PerLayer), len(perLayerUnits))
	}
	for i, m := range spec.PerLayer {
		unique(m.Name)
		if !unitGrammar.MatchString(m.Unit) {
			t.Errorf("unit %q is outside the grammar", m.Unit)
		}
		if i < len(perLayerUnits) && (perLayerUnits[i][0] != m.Name || perLayerUnits[i][1] != m.Unit) {
			t.Errorf("per_layer %d is %s (%s) in BENCHMARK.json, %s (%s) in the program", i, m.Name, m.Unit, perLayerUnits[i][0], perLayerUnits[i][1])
		}
		if m.Bound != 0 {
			t.Errorf("per_layer %s has a bound", m.Name)
		}
	}
}

// -quick must run every workload clean: no failed op, every check
// made, every promised metric present. The traced quick run is left to
// the long mode because its ladder alone takes seconds.
func TestQuickRunsClean(t *testing.T) {
	out := t.TempDir()
	for _, wl := range workloads(1) {
		res, err := runOne(io.Discard, wl.name, 1, defaultSeconds, false, true, out)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < verifySamples {
			t.Errorf("%s: correct=%t attempted=%d failed=%d", wl.name, res.Correct, res.Attempted, res.Failed)
		}
		for name, m := range res.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: end-to-end metric %s is %v, must never be 0", wl.name, name, m.Value)
			}
		}
	}
	if testing.Short() {
		return
	}
	res, err := runOne(io.Discard, "federated_import", 1, defaultSeconds, true, true, out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.Metrics) != len(perLayerUnits) {
		t.Errorf("traced run: correct=%t, %d of %d per-layer metrics", res.Correct, len(res.Metrics), len(perLayerUnits))
	}
	for _, name := range []string{"mesh.peers_per_op", "mesh.peer_call_us", "wire.bytes_per_op", "cosm.server_us", "xcode.unmarshal_us"} {
		if !(res.Metrics[name].Value > 0) {
			t.Errorf("traced federated_import: %s is %v", name, res.Metrics[name].Value)
		}
	}
}
