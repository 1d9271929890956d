package trader

import (
	"context"
	"sort"
	"time"
)

// SummaryEntry advertises one service type: how many offers the sender
// can reach and how many additional federation hops away they are
// (0 = stored at the sender itself).
type SummaryEntry struct {
	Type  string `sidl:"serviceType"`
	Count int
	Hops  int
}

// OfferSummary is one trader's compact advertisement of the service
// types it can answer imports for. Summaries are exchanged between
// linked traders (see Trader.GossipRound) so federatedMatches can route
// an import only to peers that plausibly hold the requested type
// instead of scattering to every link.
type OfferSummary struct {
	// From is the advertising trader's federation identity.
	From string
	// Gen orders summaries from the same sender; receivers drop
	// generations older than the one they hold. It is the sender's
	// clock, so it stays monotonic across restarts.
	Gen uint64
	// Entries lists the advertised types, sorted by name.
	Entries []SummaryEntry
}

// SummaryPeer is the optional Federate extension for offer-summary
// gossip: both *Trader (in-process links) and *Client (remote links)
// implement it. A push doubles as a pull — the receiver stores the
// caller's summary and replies with its own, so one round of pushes
// over a link populates routing state on both ends, and an asymmetric
// link still learns its peer's summary from the reply.
type SummaryPeer interface {
	ExchangeSummary(ctx context.Context, s OfferSummary) (OfferSummary, error)
}

// gossipHorizon bounds how far reachability is re-advertised: a trader
// advertises its own offers (hop 0) and what its direct links
// advertised as their own (hop 1). Deeper relaying would let stale
// counts circulate through cycles.
const gossipHorizon = 2

// summaryTTL is how long a received summary steers routing before the
// link degrades to unknown coverage (see meshLink.freshSummary).
const summaryTTL = 30 * time.Second

// Summary builds this trader's current offer summary: its own stored
// types at hop 0 plus, within the gossip horizon, the types its links
// advertise, re-advertised one hop further.
func (t *Trader) Summary() OfferSummary {
	now := t.now()
	type agg struct {
		count int
		hops  int
	}
	types := map[string]agg{}
	for name, count := range t.core.TypeCounts(now) {
		types[name] = agg{count: count, hops: 0}
	}
	for _, l := range t.mesh.snapshot() {
		sum := l.freshSummary(now)
		if sum == nil {
			continue
		}
		for _, e := range sum.Entries {
			h := e.Hops + 1
			if h >= gossipHorizon {
				continue
			}
			cur, ok := types[e.Type]
			if !ok {
				types[e.Type] = agg{count: e.Count, hops: h}
				continue
			}
			cur.count += e.Count
			if h < cur.hops {
				cur.hops = h
			}
			types[e.Type] = cur
		}
	}
	s := OfferSummary{From: t.id, Gen: uint64(now.UnixNano())}
	for name, a := range types {
		s.Entries = append(s.Entries, SummaryEntry{Type: name, Count: a.count, Hops: a.hops})
	}
	sort.Slice(s.Entries, func(i, j int) bool { return s.Entries[i].Type < s.Entries[j].Type })
	return s
}

// ExchangeSummary implements SummaryPeer for in-process links: it
// stores the caller's summary against the matching link (if any) and
// replies with this trader's own summary.
func (t *Trader) ExchangeSummary(_ context.Context, s OfferSummary) (OfferSummary, error) {
	t.acceptSummary(s)
	return t.Summary(), nil
}

// acceptSummary records a peer's summary on the link that reaches it.
// Summaries from traders this one has no link to are dropped: routing
// state is only useful for peers an import could be forwarded to.
func (t *Trader) acceptSummary(s OfferSummary) {
	if s.From == "" {
		return
	}
	if l, ok := t.mesh.byPeer(s.From); ok {
		if l.setSummary(&s, t.now()) {
			t.metrics.gossip.With("accepted").Inc()
		} else {
			t.metrics.gossip.With("stale").Inc()
		}
	}
}

// GossipRound pushes this trader's offer summary to every link whose
// peer speaks summary gossip and stores the summaries they reply with.
// One round therefore refreshes this trader's routing state for all its
// links. Push failures feed the per-link breakers and are reported in
// the returned count of failed pushes; timeout bounds each push
// (<= 0 means no per-push bound beyond ctx).
func (t *Trader) GossipRound(ctx context.Context, timeout time.Duration) (pushed, failed int) {
	mine := t.Summary()
	for _, l := range t.mesh.snapshot() {
		peer, ok := l.peer.(SummaryPeer)
		if !ok {
			continue
		}
		if l.br.Allow(t.now()) != nil {
			continue // failing fast; the cooldown probe will retry
		}
		pctx, cancel := ctx, context.CancelFunc(func() {})
		if timeout > 0 {
			pctx, cancel = context.WithTimeout(ctx, timeout)
		}
		theirs, err := peer.ExchangeSummary(pctx, mine)
		cancel()
		if err != nil {
			failed++
			t.metrics.gossip.With("push_error").Inc()
			if l.br.Failure(t.now()) {
				t.event("link_down", "link", l.name, "err", err.Error())
			}
			continue
		}
		pushed++
		l.seen(t.now())
		if theirs.From != "" {
			if l.setSummary(&theirs, t.now()) {
				t.metrics.gossip.With("accepted").Inc()
			} else {
				t.metrics.gossip.With("stale").Inc()
			}
		}
	}
	return pushed, failed
}

// Gossiper periodically runs summary gossip rounds for one trader.
type Gossiper struct {
	t        *Trader
	interval time.Duration
	timeout  time.Duration
	loop     loop
}

// NewGossiper returns a gossiper pushing every interval, bounding each
// push to timeout (defaults to interval when <= 0). Call Start.
func NewGossiper(t *Trader, interval, timeout time.Duration) *Gossiper {
	if timeout <= 0 {
		timeout = interval
	}
	return &Gossiper{t: t, interval: interval, timeout: timeout}
}

// Start launches the gossip loop.
func (g *Gossiper) Start() {
	g.loop.start(func(ctx context.Context) {
		ticker := time.NewTicker(g.interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				// Not derived from ctx: a round cut short by Close would
				// count its pushes as failures against live links.
				rctx, cancel := context.WithTimeout(context.Background(), g.interval)
				g.t.GossipRound(rctx, g.timeout)
				cancel()
			case <-ctx.Done():
				return
			}
		}
	})
}

// Close stops the gossip loop and waits for a round in flight. Safe to
// call more than once, and before Start.
func (g *Gossiper) Close() { g.loop.stop() }
