package wire

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjectedFault marks failures manufactured by a FaultNet, so tests
// can tell injected damage from real damage.
var ErrInjectedFault = errors.New("wire: injected fault")

// FaultConfig parameterises a FaultNet. All probabilities are in
// [0, 1] and are drawn per event (per dial, per Read/Write call) from
// one seeded RNG, so a single-threaded caller observes a fully
// deterministic fault sequence for a given seed.
type FaultConfig struct {
	// Seed drives all fault decisions deterministically.
	Seed int64

	// DialErrorProb is the probability a Dial fails outright with
	// ErrInjectedFault ("host unreachable").
	DialErrorProb float64
	// ResetProb is the probability a Read or Write call tears the
	// connection down instead ("connection reset by peer").
	ResetProb float64
	// DropProb is the probability a Write is silently swallowed: the
	// caller believes the frame was sent, the peer never sees it
	// ("packet loss" at frame granularity).
	DropProb float64
	// CorruptProb is the probability one byte of a Read or Write is
	// flipped ("bit rot on the wire").
	CorruptProb float64

	// Latency is added to every Read and Write call, plus a further
	// uniform random delay of up to half of it.
	Latency time.Duration
}

// FaultStats counts injected events (monotonic, goroutine-safe).
type FaultStats struct {
	Dials       uint64 // dial attempts seen
	DialErrors  uint64 // dials failed by injection
	Resets      uint64 // connections torn down by injection
	Drops       uint64 // writes swallowed
	Corruptions uint64 // bytes flipped
}

// FaultNet is a deterministic fault-injecting transport: it wraps a
// dialer (typically DialConnContext) and returns connections that
// inject latency, resets, drops and corruption under a seeded RNG.
// Plug it into a Pool with WithDialer to exercise every layer above
// the wire against realistic network damage:
//
//	faults := wire.NewFaultNet(wire.FaultConfig{Seed: 7, ResetProb: 0.05}, wire.DialConnContext)
//	pool := wire.NewPool(wire.WithDialer(faults.Dial))
type FaultNet struct {
	cfg  FaultConfig
	next func(ctx context.Context, endpoint string) (net.Conn, error)

	mu  sync.Mutex
	rng *rand.Rand

	// blocked holds endpoints under a deterministic partition: dials to
	// them fail outright and live connections are severed the moment the
	// block lands. conns tracks every live fault connection by endpoint
	// so Block can cut established links, not just future dials.
	blocked map[string]bool
	conns   map[*faultConn]string

	dials       atomic.Uint64
	dialErrors  atomic.Uint64
	resets      atomic.Uint64
	drops       atomic.Uint64
	corruptions atomic.Uint64
}

// NewFaultNet returns a fault-injecting wrapper around next.
func NewFaultNet(cfg FaultConfig, next func(ctx context.Context, endpoint string) (net.Conn, error)) *FaultNet {
	return &FaultNet{
		cfg:     cfg,
		next:    next,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		blocked: make(map[string]bool),
		conns:   make(map[*faultConn]string),
	}
}

// Block partitions this side of the network from the given endpoints:
// new dials to them fail with ErrInjectedFault and every live
// connection to them is severed immediately. Blocking is deterministic
// (no probability roll); one-sided blocks model asymmetric partitions,
// since each node carries its own FaultNet for outbound traffic.
func (f *FaultNet) Block(endpoints ...string) {
	f.mu.Lock()
	var cut []*faultConn
	for _, ep := range endpoints {
		f.blocked[ep] = true
		for c, target := range f.conns {
			if target == ep {
				cut = append(cut, c)
			}
		}
	}
	f.mu.Unlock()
	for _, c := range cut {
		_ = c.Conn.Close()
	}
}

// Unblock heals a partition created by Block.
func (f *FaultNet) Unblock(endpoints ...string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, ep := range endpoints {
		delete(f.blocked, ep)
	}
}

// Blocked reports whether an endpoint is currently partitioned.
func (f *FaultNet) Blocked(endpoint string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.blocked[endpoint]
}

// Stats returns a snapshot of the injected-event counters.
func (f *FaultNet) Stats() FaultStats {
	return FaultStats{
		Dials:       f.dials.Load(),
		DialErrors:  f.dialErrors.Load(),
		Resets:      f.resets.Load(),
		Drops:       f.drops.Load(),
		Corruptions: f.corruptions.Load(),
	}
}

// roll draws one uniform [0,1) variate from the shared seeded stream.
func (f *FaultNet) roll() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rng.Float64()
}

// jitter draws a uniform delay in [0, max).
func (f *FaultNet) jitter(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return time.Duration(f.rng.Int63n(int64(max)))
}

// corruptIndex picks the byte to flip in a buffer of length n.
func (f *FaultNet) corruptIndex(n int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rng.Intn(n)
}

// Dial opens a connection through the wrapped dialer, possibly failing
// by injection.
func (f *FaultNet) Dial(ctx context.Context, endpoint string) (net.Conn, error) {
	f.dials.Add(1)
	if f.Blocked(endpoint) {
		f.dialErrors.Add(1)
		return nil, fmt.Errorf("%w: dial %s blocked (partition)", ErrInjectedFault, endpoint)
	}
	if f.cfg.DialErrorProb > 0 && f.roll() < f.cfg.DialErrorProb {
		f.dialErrors.Add(1)
		return nil, fmt.Errorf("%w: dial %s refused", ErrInjectedFault, endpoint)
	}
	conn, err := f.next(ctx, endpoint)
	if err != nil {
		return nil, err
	}
	fc := &faultConn{Conn: conn, net: f, endpoint: endpoint}
	f.mu.Lock()
	if f.blocked[endpoint] { // partition landed during the dial
		f.mu.Unlock()
		_ = conn.Close()
		f.dialErrors.Add(1)
		return nil, fmt.Errorf("%w: dial %s blocked (partition)", ErrInjectedFault, endpoint)
	}
	f.conns[fc] = endpoint
	f.mu.Unlock()
	return fc, nil
}

// faultConn injects faults on both directions of one connection.
type faultConn struct {
	net.Conn
	net      *FaultNet
	endpoint string
}

// Close drops the connection from the partition registry.
func (c *faultConn) Close() error {
	c.net.mu.Lock()
	delete(c.net.conns, c)
	c.net.mu.Unlock()
	return c.Conn.Close()
}

// delay applies the configured latency to one I/O call.
func (c *faultConn) delay() {
	d := c.net.cfg.Latency + c.net.jitter(c.net.cfg.Latency/2)
	if d > 0 {
		time.Sleep(d)
	}
}

// reset tears the connection down and reports the injected error.
func (c *faultConn) reset(op string) error {
	c.net.resets.Add(1)
	_ = c.Close()
	return fmt.Errorf("%w: connection reset during %s", ErrInjectedFault, op)
}

func (c *faultConn) Read(p []byte) (int, error) {
	c.delay()
	cfg := &c.net.cfg
	if cfg.ResetProb > 0 && c.net.roll() < cfg.ResetProb {
		return 0, c.reset("read")
	}
	n, err := c.Conn.Read(p)
	if n > 0 && cfg.CorruptProb > 0 && c.net.roll() < cfg.CorruptProb {
		c.net.corruptions.Add(1)
		p[c.net.corruptIndex(n)] ^= 0x20
	}
	return n, err
}

func (c *faultConn) Write(p []byte) (int, error) {
	c.delay()
	cfg := &c.net.cfg
	if cfg.ResetProb > 0 && c.net.roll() < cfg.ResetProb {
		return 0, c.reset("write")
	}
	if cfg.DropProb > 0 && c.net.roll() < cfg.DropProb {
		c.net.drops.Add(1)
		return len(p), nil // swallowed: the caller believes it was sent
	}
	if cfg.CorruptProb > 0 && c.net.roll() < cfg.CorruptProb && len(p) > 0 {
		c.net.corruptions.Add(1)
		// Copy before flipping: the caller owns p and may reuse it.
		damaged := make([]byte, len(p))
		copy(damaged, p)
		damaged[c.net.corruptIndex(len(p))] ^= 0x20
		return c.Conn.Write(damaged)
	}
	return c.Conn.Write(p)
}
