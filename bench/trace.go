package main

import (
	"context"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"cosm/internal/obs"
	"cosm/internal/wire"
)

// countingDialer dials like the pool's default dialer and wraps each
// connection so the traced run can report the client side's bytes,
// writes and reads per op. It is injected with wire.WithDialer.
type countingDialer struct {
	bytesOut, bytesIn, writes, reads atomic.Uint64
}

func (c *countingDialer) dial(ctx context.Context, endpoint string) (net.Conn, error) {
	conn, err := wire.DialConnContext(ctx, endpoint)
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: conn, c: c}, nil
}

type countingConn struct {
	net.Conn
	c *countingDialer
}

func (cc *countingConn) Write(p []byte) (int, error) {
	n, err := cc.Conn.Write(p)
	cc.c.writes.Add(1)
	cc.c.bytesOut.Add(uint64(n))
	return n, err
}

func (cc *countingConn) Read(p []byte) (int, error) {
	n, err := cc.Conn.Read(p)
	cc.c.reads.Add(1)
	cc.c.bytesIn.Add(uint64(n))
	return n, err
}

type connCounts struct{ bytes, writes, reads uint64 }

func (c *countingDialer) counts() connCounts {
	return connCounts{bytes: c.bytesOut.Load() + c.bytesIn.Load(), writes: c.writes.Load(), reads: c.reads.Load()}
}

// spanStats are the per-layer times read off one traced segment: for
// every op, the benchmark's own span around the call, the client spans
// the wire pool recorded under it, and the server spans under those.
type spanStats struct {
	// clientSelf is op span minus the interval its client spans cover:
	// value conversion, codec and dispatch on the caller's side.
	clientSelf []float64
	// transit is client span minus its server span: framing, syscalls
	// and scheduling between the two ends.
	transit []float64
	// server is the handler span: decode, the trader, encode.
	server []float64
	// peerCall is every client span under a federated op;
	// scatterSelf is the op span minus its longest client span.
	peerCall, scatterSelf []float64
}

// deriveSpanStats links recorder spans to bench spans by trace ID and
// parent span ID and computes each layer's self time.
func deriveSpanStats(ops []benchSpan, recorded []obs.Span) spanStats {
	byTrace := make(map[string][]obs.Span, len(ops))
	for _, s := range recorded {
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	var st spanStats
	for _, o := range ops {
		spans := byTrace[o.Trace]
		if len(spans) == 0 {
			continue // in-process workload: the op span is all there is
		}
		serverOf := map[string]time.Duration{}
		for _, s := range spans {
			if s.Kind == obs.SpanServer {
				serverOf[s.Parent] = s.Duration
			}
		}
		// Client spans of one op may overlap (scatter): cover is the
		// union of their intervals, which the recorder returns sorted
		// by start time.
		var cover, longest time.Duration
		var coveredTo time.Time
		for _, s := range spans {
			if s.Kind != obs.SpanClient || s.Parent != o.ID {
				continue
			}
			st.peerCall = append(st.peerCall, usOf(s.Duration))
			if srv, ok := serverOf[s.ID]; ok {
				st.transit = append(st.transit, usOf(s.Duration-srv))
				st.server = append(st.server, usOf(srv))
			}
			if s.Duration > longest {
				longest = s.Duration
			}
			from := s.Start
			if from.Before(coveredTo) {
				from = coveredTo
			}
			if end := s.End(); end.After(from) {
				cover += end.Sub(from)
				coveredTo = end
			}
		}
		st.clientSelf = append(st.clientSelf, usOf(o.Dur-cover))
		st.scatterSelf = append(st.scatterSelf, usOf(o.Dur-longest))
	}
	return st
}

// traceFile is what a traced run leaves in out/trace-<workload>.json.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Env      map[string]any     `json:"env"`
	Metrics  map[string]float64 `json:"per_layer"`
	// Spans holds the first traceFileOps ops in full: the benchmark's
	// own span per op (kind "bench") and, under the same trace ID, the
	// client and server spans the system's flight recorder kept.
	Spans []traceSpan `json:"spans"`
}

type traceSpan struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	Op      int    `json:"op"`
	Trace   string `json:"trace"`
	ID      string `json:"id"`
	Parent  string `json:"parent,omitempty"`
	Peer    string `json:"peer,omitempty"`
	StartNs int64  `json:"start_ns"` // since the first span of the file
	EndNs   int64  `json:"end_ns"`
}

// traceFileOps bounds the spans written out; every span still feeds
// the per-layer metrics.
const traceFileOps = 500

func writeTraceFile(dir string, tf traceFile, ops []benchSpan, recorded []obs.Span) error {
	if len(ops) > traceFileOps {
		ops = ops[:traceFileOps]
	}
	opOf := make(map[string]int, len(ops))
	var epoch time.Time
	for i, o := range ops {
		if i == 0 || o.Start.Before(epoch) {
			epoch = o.Start
		}
		opOf[o.Trace] = o.Op
		tf.Spans = append(tf.Spans, traceSpan{Name: o.Name, Kind: "bench", Op: o.Op, Trace: o.Trace, ID: o.ID,
			StartNs: int64(o.Start.Sub(epoch)), EndNs: int64(o.Start.Add(o.Dur).Sub(epoch))})
	}
	for _, s := range recorded {
		opIdx, ok := opOf[s.Trace]
		if !ok {
			continue
		}
		tf.Spans = append(tf.Spans, traceSpan{Name: s.Op, Kind: s.Kind, Op: opIdx, Trace: s.Trace, ID: s.ID, Parent: s.Parent,
			Peer: s.Peer, StartNs: int64(s.Start.Sub(epoch)), EndNs: int64(s.End().Sub(epoch))})
	}
	data, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+tf.Workload+".json"), data, 0o644)
}
