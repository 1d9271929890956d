package trader

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"cosm/internal/trader/core"
	"cosm/internal/wire"
)

// Errors reported by the link registry.
var (
	// ErrLinkExists is returned by AddLink when the name is taken.
	ErrLinkExists = errors.New("trader: link name already registered")
	// ErrLinkUnknown is returned by RemoveLink for an unregistered name.
	ErrLinkUnknown = errors.New("trader: unknown link")
	// ErrNoLinkDialer is returned by the wire-level LinkAdd when the
	// trader has no dialer to resolve peer references with.
	ErrNoLinkDialer = errors.New("trader: no link dialer configured")
)

// LinkInfo is the observable state of one federation link — what
// `cosmcli links` prints and the LinkList wire op returns.
type LinkInfo struct {
	// Name is the operator-chosen registry key of the link.
	Name string
	// PeerID is the peer's federation identity: the trader ID once
	// learned through gossip, otherwise the Federate's own identity
	// (a service reference for remote links).
	PeerID string
	// State is the link's breaker state: closed, open or half-open.
	State wire.BreakerState
	// LastSeen is the instant of the last successful interaction with
	// the peer (zero before the first one).
	LastSeen time.Time
	// Hops is the farthest advertised hop distance reachable through
	// this link, plus one: 1 when the peer advertises only its own
	// offers, 2 when it relays summaries of its own links, 0 before any
	// summary arrived.
	Hops int
	// SummaryGen is the generation of the peer's last offer summary
	// (0 before the first one).
	SummaryGen uint64
	// SummaryTypes counts the service types in the peer's last summary.
	SummaryTypes int
	// SummaryAge is how stale the peer's last summary is (negative
	// before the first one).
	SummaryAge time.Duration
}

// meshLink is one registered federation link: the peer plus the
// per-link state the mesh keeps — breaker health, last-seen, and the
// peer's latest offer summary.
type meshLink struct {
	name string
	peer Federate
	br   *wire.Breaker

	mu sync.Mutex
	// peerID is the peer's trader identity once a summary revealed it;
	// until then the Federate identity stands in.
	peerID    string
	lastSeen  time.Time
	summary   *OfferSummary
	summaryAt time.Time
}

// seen records a successful interaction with the peer.
func (l *meshLink) seen(now time.Time) {
	l.br.Success()
	l.mu.Lock()
	l.lastSeen = now
	l.mu.Unlock()
}

// id returns the best-known federation identity of the peer.
func (l *meshLink) id() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.peerID != "" {
		return l.peerID
	}
	return l.peer.FederationID()
}

// setSummary installs a fresher offer summary from the peer; stale
// generations are dropped. It returns whether the summary was taken.
func (l *meshLink) setSummary(s *OfferSummary, now time.Time) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.summary != nil && s.Gen < l.summary.Gen {
		return false
	}
	l.summary = s
	l.summaryAt = now
	if s.From != "" {
		l.peerID = s.From
	}
	return true
}

// freshSummary returns the peer's summary while it may still steer
// routing: nil before the first one arrives and once it is older than
// summaryTTL, so a stalled gossiper degrades the link to unknown
// coverage (always consulted) instead of hiding offers.
func (l *meshLink) freshSummary(now time.Time) *OfferSummary {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.summary == nil || now.Sub(l.summaryAt) > summaryTTL {
		return nil
	}
	return l.summary
}

// info renders the link's observable state.
func (l *meshLink) info(now time.Time) LinkInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	info := LinkInfo{
		Name:     l.name,
		PeerID:   l.peerID,
		State:    l.br.State(),
		LastSeen: l.lastSeen,
	}
	if info.PeerID == "" {
		info.PeerID = l.peer.FederationID()
	}
	if l.summary != nil {
		info.SummaryGen = l.summary.Gen
		info.SummaryTypes = len(l.summary.Entries)
		info.SummaryAge = now.Sub(l.summaryAt)
		info.Hops = 1
		for _, e := range l.summary.Entries {
			if e.Hops+1 > info.Hops {
				info.Hops = e.Hops + 1
			}
		}
	} else {
		info.SummaryAge = -1
	}
	return info
}

// linkRegistry is the trader's named federation link table. All methods
// are safe for concurrent use — Link/Import races are the registry's
// normal operating mode.
type linkRegistry struct {
	policy wire.BreakerPolicy

	mu    sync.RWMutex
	links map[string]*meshLink
}

func newLinkRegistry(policy wire.BreakerPolicy) *linkRegistry {
	return &linkRegistry{policy: policy, links: map[string]*meshLink{}}
}

func (r *linkRegistry) add(name string, peer Federate) (*meshLink, error) {
	if name == "" {
		return nil, fmt.Errorf("trader: empty link name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.links[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrLinkExists, name)
	}
	l := &meshLink{name: name, peer: peer, br: wire.NewBreaker(r.policy)}
	r.links[name] = l
	return l, nil
}

func (r *linkRegistry) remove(name string) (*meshLink, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	l, ok := r.links[name]
	if ok {
		delete(r.links, name)
	}
	return l, ok
}

// snapshot returns the current links in stable name order.
func (r *linkRegistry) snapshot() []*meshLink {
	r.mu.RLock()
	out := make([]*meshLink, 0, len(r.links))
	for _, l := range r.links {
		out = append(out, l)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// byPeer finds the link whose peer carries the given federation
// identity (learned trader ID or Federate identity).
func (r *linkRegistry) byPeer(id string) (*meshLink, bool) {
	for _, l := range r.snapshot() {
		if l.id() == id || l.peer.FederationID() == id {
			return l, true
		}
	}
	return nil, false
}

func (r *linkRegistry) count() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.links)
}

// ---------------------------------------------------------------------
// Trader link-management surface
// ---------------------------------------------------------------------

// AddLink registers a named federation link consulted by imports with
// HopLimit > 0. The name is the operator's handle for the link
// (Remove, listings); it must be unique at this trader.
func (t *Trader) AddLink(name string, peer Federate) error {
	_, err := t.mesh.add(name, peer)
	if err != nil {
		return err
	}
	t.event("link_add", "link", name, "peer", peer.FederationID())
	t.log.Log(nil, "link_add", "link", name, "peer", peer.FederationID())
	return nil
}

// RemoveLink removes a federation link by name.
func (t *Trader) RemoveLink(name string) error {
	if _, ok := t.mesh.remove(name); !ok {
		return fmt.Errorf("%w: %q", ErrLinkUnknown, name)
	}
	t.event("link_remove", "link", name)
	t.log.Log(nil, "link_remove", "link", name)
	return nil
}

// Links returns the observable state of every federation link, sorted
// by name.
func (t *Trader) Links() []LinkInfo {
	now := t.now()
	links := t.mesh.snapshot()
	out := make([]LinkInfo, len(links))
	for i, l := range links {
		out[i] = l.info(now)
	}
	return out
}

// LinkCount returns the number of registered federation links.
func (t *Trader) LinkCount() int { return t.mesh.count() }

// SetLinkDialer installs the resolver the wire-level LinkAdd operation
// uses to turn a peer service reference into a Federate (traderd wires
// this to DialTrader over the node's pool). Set before serving.
func (t *Trader) SetLinkDialer(dial LinkDialer) { t.linkDialer = dial }

// FedStats is a running tally of the trader's federated scatter-gather
// behaviour, for tests and benchmarks that assert routing decisions.
type FedStats struct {
	// Imports counts federated fan-outs (imports with HopLimit > 0 and
	// at least one eligible link).
	Imports uint64
	// PeersAsked counts peer queries issued, hedges included.
	PeersAsked uint64
	// Routed counts fan-outs narrowed by offer summaries; Full counts
	// fan-outs that consulted every eligible link for lack of them.
	Routed uint64
	Full   uint64
	// Hedged counts backup queries launched after the hedge delay.
	Hedged uint64
}

// FedStats returns the current federation scatter tallies.
func (t *Trader) FedStats() FedStats {
	return FedStats{
		Imports:    t.fedImports.Load(),
		PeersAsked: t.fedPeers.Load(),
		Routed:     t.fedRouted.Load(),
		Full:       t.fedFull.Load(),
		Hedged:     t.fedHedged.Load(),
	}
}

// ---------------------------------------------------------------------
// Budgeted scatter-gather
// ---------------------------------------------------------------------

// scatterPlan is one federated fan-out: the links to query now and the
// spares a hedge may promote.
type scatterPlan struct {
	targets []*meshLink
	spares  []*meshLink
	// routed is true when offer summaries narrowed the target set.
	routed bool
}

// planScatter picks the links a federated import should consult.
// Links already visited by the request or failing fast (breaker open)
// are skipped. When fresh offer summaries are available the plan keeps
// only peers that plausibly hold the requested type — an entry whose
// hop distance fits inside the request's remaining hop budget — plus
// peers with no summary at all (unknown coverage must stay reachable).
// MaxPeers then caps the consulted set, preferring summary-positive
// peers holding the most offers at the fewest hops; the overflow
// becomes hedge spares.
func (t *Trader) planScatter(req ImportRequest, visited []string) scatterPlan {
	now := t.now()
	links := t.mesh.snapshot()

	skip := func(l *meshLink) bool {
		lid, fid := l.id(), l.peer.FederationID()
		for _, v := range visited {
			if v == lid || v == fid {
				return true
			}
		}
		return l.br.Allow(now) != nil
	}

	type scored struct {
		l     *meshLink
		hops  int // best hop distance for the requested type; -1 unknown
		count int
	}
	var routed, unknown []scored
	anySummary := false
	for _, l := range links {
		if skip(l) {
			continue
		}
		sum := l.freshSummary(now)
		if sum == nil {
			unknown = append(unknown, scored{l: l, hops: -1})
			continue
		}
		anySummary = true
		bestHops, count := -1, 0
		for _, e := range sum.Entries {
			if e.Hops > req.HopLimit-1 {
				continue // out of the request's remaining hop budget
			}
			// Coverage is decided by the same typemgr closure the local
			// matcher resolves against, so summary routing and
			// matching can never disagree about the hierarchy.
			if !t.types.Covers(req.Type, e.Type) {
				continue
			}
			count += e.Count
			if bestHops < 0 || e.Hops < bestHops {
				bestHops = e.Hops
			}
		}
		if bestHops >= 0 {
			routed = append(routed, scored{l: l, hops: bestHops, count: count})
		}
		// A fresh summary that does not cover the type rules the peer
		// out: that is the whole point of advertising summaries.
	}

	sort.SliceStable(routed, func(i, j int) bool {
		if routed[i].hops != routed[j].hops {
			return routed[i].hops < routed[j].hops
		}
		return routed[i].count > routed[j].count
	})

	all := append(routed, unknown...)
	plan := scatterPlan{routed: anySummary}
	for _, s := range all {
		plan.targets = append(plan.targets, s.l)
	}
	if req.MaxPeers > 0 && len(plan.targets) > req.MaxPeers {
		plan.spares = plan.targets[req.MaxPeers:]
		plan.targets = plan.targets[:req.MaxPeers]
	}
	return plan
}

// hopBudget derives the deadline budget for one more federation hop:
// the caller keeps a margin of the remaining budget for its own gather,
// ordering and marshalling work, and the sub-queries get the rest. The
// margin shrinks with the remaining budget but stays within
// [1ms, 250ms], so a deep hop chain degrades to progressively smaller
// budgets instead of every hop burning the full deadline.
func hopBudget(ctx context.Context, hopsLeft int) (sub context.Context, cancel context.CancelFunc, cutoff time.Time, ok bool) {
	deadline, has := ctx.Deadline()
	if !has {
		return ctx, func() {}, time.Time{}, false
	}
	rem := time.Until(deadline)
	if hopsLeft < 1 {
		hopsLeft = 1
	}
	margin := rem / time.Duration(hopsLeft+1)
	if margin < time.Millisecond {
		margin = time.Millisecond
	}
	if margin > 250*time.Millisecond {
		margin = 250 * time.Millisecond
	}
	cutoff = deadline.Add(-margin)
	sub, cancel = context.WithDeadline(ctx, cutoff)
	return sub, cancel, cutoff, true
}

// federatedMatches consults partner traders, decrementing the hop limit
// and carrying the visited set for loop protection. The fan-out is
// planned from gossiped offer summaries (see planScatter) so an import
// is routed only to peers that plausibly hold the requested type, and
// budgeted: sub-queries run under a split of the caller's deadline,
// collection stops at the local margin, and when the request carries a
// hedge delay one backup peer is queried as soon as the primaries run
// late. Peer failures are tolerated — federation widens the search
// best-effort — and feed the per-link breakers, so a dead peer fails
// fast until its cooldown probe. Results are deduplicated by offer ID:
// in a cyclic mesh the same origin offer can arrive over several paths.
// Matches relayed ungraded by pre-grading peers are re-graded against
// this trader's hierarchy view and floored at the request's MinGrade.
func (t *Trader) federatedMatches(ctx context.Context, req ImportRequest) []Match {
	visited := append(append([]string(nil), req.visited...), t.id)
	plan := t.planScatter(req, visited)
	if len(plan.targets) == 0 {
		return nil
	}

	t.fedImports.Add(1)
	if plan.routed {
		t.fedRouted.Add(1)
		t.metrics.fedScatter.With("routed").Inc()
	} else {
		t.fedFull.Add(1)
		t.metrics.fedScatter.With("full").Inc()
	}

	sub := req
	sub.HopLimit--
	sub.Policy = "" // ordering happens once, at the originating trader
	sub.Max = 0
	sub.visited = visited

	subCtx, cancel, cutoffAt, budgeted := hopBudget(ctx, req.HopLimit)
	defer cancel()

	type linkResult struct {
		link    *meshLink
		matches []Match
		err     error
	}
	// Buffered to the worst-case query count: a link that answers after
	// the cutoff deposits its result and exits instead of leaking a
	// goroutine.
	results := make(chan linkResult, len(plan.targets)+len(plan.spares)+1)
	launch := func(l *meshLink) {
		t.fedPeers.Add(1)
		go func() {
			ms, err := l.peer.ImportGraded(subCtx, sub)
			results <- linkResult{link: l, matches: ms, err: err}
		}()
	}
	pending := 0
	for _, l := range plan.targets {
		launch(l)
		pending++
	}
	asked := pending

	// The local gather cutoff mirrors the sub-query deadline: abandon
	// slow links with enough headroom left to assemble the reply.
	var cutoff <-chan time.Time
	if budgeted {
		timer := time.NewTimer(time.Until(cutoffAt))
		defer timer.Stop()
		cutoff = timer.C
	}

	// Hedge: when the primaries run late, query one backup peer (the
	// best spare, or a duplicate of a still-pending primary — offer-ID
	// dedupe makes duplicates safe).
	var hedge <-chan time.Time
	hedged := false
	if req.Hedge > 0 {
		ht := time.NewTimer(req.Hedge)
		defer ht.Stop()
		hedge = ht.C
	}

	pendingLinks := make(map[*meshLink]int, pending)
	for _, l := range plan.targets {
		pendingLinks[l]++
	}

	minGrade := core.EffectiveMinGrade(req.MinGrade)
	var out []Match
	seen := make(map[string]bool)
	now := func() time.Time { return t.now() }
	for pending > 0 {
		select {
		case r := <-results:
			pending--
			if pendingLinks[r.link]--; pendingLinks[r.link] <= 0 {
				delete(pendingLinks, r.link)
			}
			if r.err != nil {
				if r.link.br.Failure(now()) {
					t.event("link_down", "link", r.link.name, "err", r.err.Error())
				}
				continue
			}
			r.link.seen(now())
			for _, m := range t.regradeRemote(req.Type, minGrade, r.matches) {
				if seen[m.ID] {
					continue // same origin offer over a second mesh path
				}
				seen[m.ID] = true
				out = append(out, m)
			}
		case <-hedge:
			hedge = nil
			if hedged || pending == 0 {
				continue
			}
			var backup *meshLink
			if len(plan.spares) > 0 {
				backup = plan.spares[0]
			} else {
				for l := range pendingLinks {
					backup = l
					break
				}
			}
			if backup == nil {
				continue
			}
			hedged = true
			t.fedHedged.Add(1)
			t.metrics.fedHedges.Inc()
			launch(backup)
			pending++
			pendingLinks[backup]++
			asked++
		case <-cutoff:
			t.metrics.fedTimeouts.Inc()
			t.metrics.fedConsulted.Observe(float64(asked))
			return out
		case <-ctx.Done():
			t.metrics.fedConsulted.Observe(float64(asked))
			return out
		}
	}
	t.metrics.fedConsulted.Observe(float64(asked))
	return out
}
