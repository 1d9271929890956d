package trader

import (
	"context"
	"sync"
	"time"

	"cosm/internal/cosm"
	"cosm/internal/ref"
	"cosm/internal/wire"
)

// pingFunc probes one provider for liveness. The default pings the
// service behind the offer's reference with cosm.Ping over a Pool
// (which already retries connection-class failures), so an error means
// the provider stayed unreachable across the pool's attempts.
type pingFunc func(ctx context.Context, target ref.ServiceRef) error

// Sweeper is the trader's offer liveness monitor — the facility
// 1994-era traders lack (clients had to work around stale offers by
// hand; see failure_test.go). It periodically probes every stored
// offer's provider: a provider that fails a probe has its offers
// marked suspect (deprioritised by Import); a provider that stays dead
// for the fail threshold of consecutive sweeps has its offers
// withdrawn. Each sweep also reclaims expired leases (PurgeExpired).
// Only a leader sweeps: a follower's offers are its leader's to mark,
// withdraw and expire, and arrive here by replication.
//
// Create with NewSweeper, then either run it in the background with
// Start/Close or drive it deterministically with SweepOnce (tests use
// a tick channel via withSweepTick, reusing the trader's withClock
// fake-clock style).
type Sweeper struct {
	t            *Trader
	ping         pingFunc
	probeTimeout time.Duration
	thresh       int
	tick         <-chan time.Time

	mu    sync.Mutex
	fails map[string]int // offer ID -> consecutive failed probes

	loop loop
}

// The background loop sweeps every sweepInterval and bounds one whole
// sweep, probes included, by sweepTimeout; providers not yet probed when
// that budget runs out are skipped, not failed — see SweepOnce.
// sweepProbeTimeout bounds each individual probe, so one black-holed
// provider cannot eat the whole sweep budget and starve — or worse,
// falsely condemn — the providers probed after it.
const (
	sweepInterval     = 30 * time.Second
	sweepTimeout      = 10 * time.Second
	sweepProbeTimeout = 2 * time.Second
)

// SweeperOption configures a Sweeper.
type SweeperOption func(*Sweeper)

// WithFailThreshold sets how many consecutive failed probes withdraw
// an offer (default 2: one sweep marks suspect, the next withdraws).
// A threshold of 1 withdraws on the first failed probe.
func WithFailThreshold(n int) SweeperOption {
	return func(sw *Sweeper) { sw.thresh = n }
}

// withProbeTimeout shortens the per-probe bound (tests black-hole a
// provider without waiting two seconds for it).
func withProbeTimeout(d time.Duration) SweeperOption {
	return func(sw *Sweeper) { sw.probeTimeout = d }
}

// withPingFunc substitutes the liveness probe (tests inject failures
// without a network).
func withPingFunc(ping pingFunc) SweeperOption {
	return func(sw *Sweeper) { sw.ping = ping }
}

// withSweepTick substitutes the background timer with an external tick
// channel, so tests drive sweeps with a fake clock.
func withSweepTick(tick <-chan time.Time) SweeperOption {
	return func(sw *Sweeper) { sw.tick = tick }
}

// NewSweeper returns a sweeper over t probing providers through pool.
// The sweeper does not run until Start (or SweepOnce) is called.
func NewSweeper(t *Trader, pool *wire.Pool, opts ...SweeperOption) *Sweeper {
	sw := &Sweeper{
		t: t,
		ping: func(ctx context.Context, target ref.ServiceRef) error {
			return cosm.Ping(ctx, pool, target)
		},
		probeTimeout: sweepProbeTimeout,
		thresh:       2,
		fails:        map[string]int{},
	}
	for _, o := range opts {
		o(sw)
	}
	if sw.thresh < 1 {
		sw.thresh = 1
	}
	return sw
}

// Start launches the background sweep loop; use Close to stop it. A
// sweep that found something to do logs one "sweep" line through the
// trader's logger.
func (sw *Sweeper) Start() {
	sw.loop.start(func(ctx context.Context) {
		tick := sw.tick
		if tick == nil {
			ticker := time.NewTicker(sweepInterval)
			defer ticker.Stop()
			tick = ticker.C
		}
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick:
				// Not derived from ctx: a probe cut short by Close would
				// read as a dead provider.
				sctx, cancel := context.WithTimeout(context.Background(), sweepTimeout)
				rep := sw.SweepOnce(sctx)
				cancel()
				if rep.Suspected+rep.Withdrawn+rep.Expired+rep.Skipped > 0 {
					sw.t.log.Log(ctx, "sweep", "checked", rep.Checked, "suspected", rep.Suspected,
						"withdrawn", rep.Withdrawn, "expired", rep.Expired, "skipped", rep.Skipped)
				}
			}
		}
	})
}

// Close stops the background loop and waits for an in-flight sweep to
// finish. Safe to call multiple times, and before Start.
func (sw *Sweeper) Close() error {
	sw.loop.stop()
	return nil
}

// SweepReport summarises one sweep.
type SweepReport struct {
	// Checked counts offers probed this sweep.
	Checked int
	// Healthy counts offers whose provider answered.
	Healthy int
	// Suspected counts offers newly or still marked suspect.
	Suspected int
	// Withdrawn counts offers withdrawn for staying dead.
	Withdrawn int
	// Expired counts offers reclaimed because their lease ran out.
	Expired int
	// Skipped counts offers not probed because the sweep budget ran
	// out first. Skipped offers keep their failure streak untouched.
	Skipped int
}

// SweepOnce performs one synchronous sweep: reclaim expired leases,
// probe every offer's provider once (one probe per distinct provider
// service, shared by all its offers), then mark or withdraw. On a
// follower it does nothing.
//
// Each probe runs under its own probe timeout, so one black-holed
// provider costs at most that much of the sweep budget. If the sweep
// ctx itself expires, the remaining providers record *no* verdict this
// sweep — their offers are skipped, never counted as failures: a probe
// cut short by the sweeper's own budget says nothing about the
// provider, and treating it as death would let one slow provider
// cascade into market-wide withdrawals of healthy offers.
func (sw *Sweeper) SweepOnce(ctx context.Context) SweepReport {
	var rep SweepReport
	if sw.t.Role() == RoleFollower {
		return rep // every verdict below is a mutation: the leader's to make
	}
	rep.Expired = sw.t.PurgeExpired()

	// Shared immutable snapshots — the sweeper only reads Ref/ID/Suspect,
	// so it skips the management view's per-offer deep copy.
	offers := sw.t.core.Live(sw.t.now())

	// One probe per distinct provider reference: a provider exporting
	// ten offers is pinged once, and all ten share the verdict.
	verdict := map[ref.ServiceRef]error{}
	for _, o := range offers {
		if _, seen := verdict[o.Ref]; seen {
			continue
		}
		if ctx.Err() != nil {
			break // sweep budget exhausted: no verdicts for the rest
		}
		pctx, cancel := context.WithTimeout(ctx, sw.probeTimeout)
		err := sw.ping(pctx, o.Ref)
		cancel()
		if err != nil && ctx.Err() != nil {
			// The sweep budget — not the per-probe one — expired while
			// this probe ran: the failure proves nothing about the
			// provider. Record no verdict for it (or any later one).
			break
		}
		verdict[o.Ref] = err
	}

	// tracked collects offer IDs whose failure streak must survive this
	// sweep (healthy, suspect, or skipped offers still stored); the GC
	// below drops streaks for everything else.
	tracked := map[string]bool{}
	for _, o := range offers {
		err, ok := verdict[o.Ref]
		if !ok {
			rep.Skipped++
			tracked[o.ID] = true // unprobed: streak carries over unchanged
			continue
		}
		rep.Checked++
		if err == nil {
			rep.Healthy++
			sw.mu.Lock()
			delete(sw.fails, o.ID)
			sw.mu.Unlock()
			if o.Suspect {
				_ = sw.t.MarkSuspect(o.ID, false)
			}
			tracked[o.ID] = true
			continue
		}
		sw.mu.Lock()
		sw.fails[o.ID]++
		n := sw.fails[o.ID]
		sw.mu.Unlock()
		if n >= sw.thresh {
			if werr := sw.t.Withdraw(o.ID); werr == nil {
				rep.Withdrawn++
			}
			sw.mu.Lock()
			delete(sw.fails, o.ID)
			sw.mu.Unlock()
			continue
		}
		rep.Suspected++
		_ = sw.t.MarkSuspect(o.ID, true)
		tracked[o.ID] = true
	}
	// Drop failure counts for offers withdrawn or replaced out of band.
	sw.mu.Lock()
	for id := range sw.fails {
		if !tracked[id] {
			delete(sw.fails, id)
		}
	}
	sw.mu.Unlock()
	return rep
}
