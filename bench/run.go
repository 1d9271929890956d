package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"cosm/internal/cosm"
	"cosm/internal/obs"
	"cosm/internal/trader"
	"cosm/internal/wire"
)

// An op is one generated client operation. The generator decides
// everything about it from the seed; the fixture only executes it.
type opKind uint8

const (
	opImport opKind = iota // the primary op of every workload
	opExport
	opWithdraw
)

func (k opKind) String() string { return [...]string{"import", "export", "withdraw"}[k] }

type op struct {
	kind opKind
	// q indexes the workload's query table (imports).
	q int
	// x, y carry the payload of writes: an export's charge (in cents)
	// and milage, a withdraw's victim as the ordinal of its export.
	x, y int64
}

// opGen yields the op sequence of one segment.
type opGen interface{ next() op }

// fixture is one freshly built system under test plus its client.
type fixture interface {
	// do executes one op and checks its output. start and d bracket
	// only the call into the system, not the generation or the check.
	do(ctx context.Context, o op) (start time.Time, d time.Duration, err error)
	// verify runs the segment-end output checks (oracle comparison,
	// recovery equality) and returns how many it made and how many
	// failed, with the first failure for the log.
	verify(ctx context.Context) (attempted, failed int, first error)
	close()
}

// workload is one row of BENCHMARK.json's workloads.
type workload struct {
	name string
	// sliceOps is the fixed op count of a slice (all op classes),
	// sized so a slice takes about 0.4 s on the reference box.
	sliceOps int
	newGen   func(seg int) opGen
	build    func(e *env, seg int) (fixture, error)
}

// env is what a run lends its fixtures: scratch space, unique names,
// and — in a traced run only — the recorder, registry and counting
// dialer to switch on through the system's public options.
type env struct {
	outDir  string // trace files
	scratch string // journals; removed when the run ends
	runID   string // makes loop: endpoint names unique
	rec     *obs.SpanRecorder
	reg     *obs.Registry
	dial    *countingDialer

	// nodes and pools of the current fixture, registered by its
	// builder so the traced run can read their counters.
	nodes []*cosm.Node
	pools []*wire.Pool
}

func (e *env) newNode() *cosm.Node {
	opts := []cosm.NodeOption{cosm.WithNodeLog(func(string, ...any) {})}
	if e.rec != nil {
		opts = append(opts, cosm.WithNodeRecorder(e.rec), cosm.WithNodeMetrics(e.reg))
	}
	if e.dial != nil {
		opts = append(opts, cosm.WithNodePool(wire.WithDialer(e.dial.dial)))
	}
	n := cosm.NewNode(opts...)
	e.nodes = append(e.nodes, n)
	e.pools = append(e.pools, n.Pool())
	return n
}

func (e *env) newPool() *wire.Pool {
	var opts []wire.PoolOption
	if e.rec != nil {
		opts = append(opts, wire.WithPoolRecorder(e.rec))
	}
	if e.dial != nil {
		opts = append(opts, wire.WithDialer(e.dial.dial))
	}
	p := wire.NewPool(opts...)
	e.pools = append(e.pools, p)
	return p
}

func (e *env) traderOpts() []trader.Option {
	if e.reg == nil {
		return nil
	}
	return []trader.Option{trader.WithMetrics(e.reg)}
}

// segPlan fixes the shape of one segment.
type segPlan struct {
	// budget is the measured time a segment aims for; slices run until
	// it is spent, within [minSlices, maxSlices].
	budget               time.Duration
	minSlices, maxSlices int
	// opsDiv shrinks every slice (quick mode).
	opsDiv int
}

type sliceStat struct {
	ops       int
	wall, cpu time.Duration
}

// benchSpan is a span recorded by the benchmark itself around one call
// into the system; Trace and ID are the obs trace identity handed to
// the call, so the spans the wire layer records parent at it.
type benchSpan struct {
	Name  string
	Op    int
	Trace string
	ID    string
	Start time.Time
	Dur   time.Duration
}

// segResult is everything one segment measured.
type segResult struct {
	setup              time.Duration
	primary, secondary []int64 // latencies in ns
	slices             []sliceStat
	ops                int // ops in measured slices
	mallocs, bytes     uint64
	gcCycles           uint32
	gcPause            time.Duration
	heapLive           uint64
	attempted, failed  int
	firstErr           error
	spans              []benchSpan
}

// runSegment builds a fresh fixture, warms it with one slice, measures
// slices until the budget is spent, checks outputs, reads the live heap
// and tears the fixture down.
func runSegment(ctx context.Context, wl *workload, e *env, seg int, plan segPlan, traced bool) (segResult, error) {
	var res segResult
	sliceOps := wl.sliceOps / plan.opsDiv
	if sliceOps < 8 {
		sliceOps = 8
	}
	// Sample buffers are allocated before the fixture so they are not
	// part of what the segment's allocation counters see growing.
	res.primary = make([]int64, 0, sliceOps*plan.maxSlices)
	res.secondary = make([]int64, 0, sliceOps*plan.maxSlices/2)
	res.slices = make([]sliceStat, 0, plan.maxSlices)
	if traced {
		res.spans = make([]benchSpan, 0, sliceOps*plan.maxSlices)
	}
	gen := wl.newGen(seg)
	e.nodes, e.pools = nil, nil

	opIndex := 0
	var f fixture // built inside the timed set-up below
	slice := func(record bool) sliceStat {
		cpu0, t0 := cpuTime(), time.Now()
		for i := 0; i < sliceOps; i++ {
			o := gen.next()
			octx := ctx
			var tr obs.Trace
			if traced && record {
				tr = obs.NewTrace()
				octx = obs.WithTrace(ctx, tr)
			}
			start, d, err := f.do(octx, o)
			res.attempted++
			if err != nil {
				// A failed op has no latency: it misses every figure.
				res.failed++
				if res.firstErr == nil {
					res.firstErr = err
				}
				continue
			}
			if !record {
				continue
			}
			if o.kind == opImport {
				res.primary = append(res.primary, int64(d))
			} else {
				res.secondary = append(res.secondary, int64(d))
			}
			if traced {
				res.spans = append(res.spans, benchSpan{Name: wl.name + "/" + o.kind.String(), Op: opIndex, Trace: tr.ID, ID: tr.Span, Start: start, Dur: d})
			}
			opIndex++
		}
		return sliceStat{ops: sliceOps, wall: time.Since(t0), cpu: cpuTime() - cpu0}
	}

	t0 := time.Now()
	var err error
	f, err = wl.build(e, seg)
	if err != nil {
		return res, fmt.Errorf("%s: build segment %d: %w", wl.name, seg, err)
	}
	defer f.close()
	slice(false) // warm-up: caches fill, lazy snapshots build, conns dial
	res.setup = time.Since(t0)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var spent time.Duration
	for s := 0; s < plan.maxSlices && (s < plan.minSlices || spent < plan.budget); s++ {
		st := slice(true)
		spent += st.wall
		res.ops += st.ops
		res.slices = append(res.slices, st)
	}
	runtime.ReadMemStats(&m1)
	res.mallocs = m1.Mallocs - m0.Mallocs
	res.bytes = m1.TotalAlloc - m0.TotalAlloc
	res.gcCycles = m1.NumGC - m0.NumGC
	res.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)

	att, failed, first := f.verify(ctx)
	res.attempted += att
	res.failed += failed
	if first != nil && res.firstErr == nil {
		res.firstErr = first
	}

	// Live heap of the warmed, loaded fixture: everything verify built
	// is garbage by now, the fixture itself is kept reachable.
	runtime.GC()
	runtime.ReadMemStats(&m1)
	res.heapLive = m1.HeapAlloc
	runtime.KeepAlive(f)
	return res, nil
}

// opHash digests the first n ops of every segment's sequence: equal
// seeds must give equal hashes, different seeds different ones.
func opHash(wl *workload, segments, n int) uint64 {
	h := fnv.New64a()
	for seg := 0; seg < segments; seg++ {
		gen := wl.newGen(seg)
		for i := 0; i < n; i++ {
			o := gen.next()
			fmt.Fprintf(h, "%d %d %d %d\n", o.kind, o.q, o.x, o.y)
		}
	}
	return h.Sum64()
}
