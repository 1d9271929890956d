package trader

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cosm/internal/journal"
	"cosm/internal/match"
	"cosm/internal/obs"
	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/typemgr"
	"cosm/internal/wire"
)

// Errors reported by the trader.
var (
	ErrOfferUnknown = errors.New("trader: unknown offer")
	ErrNoOffer      = errors.New("trader: no matching offer")
)

// Offer is one exported service offer: the triangular relationship of
// Fig. 1 stores these at the trader (step 1) and hands matching ones to
// importers (step 3), which then bind directly (steps 4 and 5).
//
// Stored offers are immutable: mutation operations (Replace,
// MarkSuspect) swap in a fresh copy, so offers returned by Import are
// shared snapshots that must not be modified by callers.
type Offer struct {
	// ID is the trader-assigned offer identifier, unique per trader.
	ID string
	// Type names the registered service type the offer belongs to.
	Type string
	// Ref is the exporter's service reference for direct binding.
	Ref ref.ServiceRef
	// Props holds the characterising attribute values.
	Props map[string]sidl.Lit
	// Expires is the lease expiry instant; the zero value means the
	// offer never expires. Expired offers stop matching immediately and
	// are reclaimed by PurgeExpired. Leases let providers in an open
	// market disappear without leaving dangling offers behind — the
	// liveness gap of 1994-era traders that failure tests demonstrate.
	Expires time.Time
	// Suspect marks an offer whose provider failed its most recent
	// liveness probe (see Sweeper). Suspect offers still match — the
	// failure may have been a transient network hiccup and the bind
	// failover path skips dead providers anyway — but importers and
	// operators can see the flag and prefer healthy offers.
	Suspect bool
}

// expired reports whether the offer's lease has run out at time now.
func (o *Offer) expired(now time.Time) bool {
	return !o.Expires.IsZero() && now.After(o.Expires)
}

func (o *Offer) clone() *Offer {
	c := &Offer{ID: o.ID, Type: o.Type, Ref: o.Ref, Props: make(map[string]sidl.Lit, len(o.Props)), Expires: o.Expires, Suspect: o.Suspect}
	for k, v := range o.Props {
		c.Props[k] = v
	}
	return c
}

// Match is one graded import result: the offer plus how well it
// satisfies the request (see the match package for the grade lattice
// and scoring model). The Offer is a shared immutable snapshot; the
// grade and score are per-request and cost no offer copy.
type Match struct {
	*Offer
	// Grade classifies the match: exact type, conforming subtype, or
	// partial attribute satisfaction. Offers relayed by pre-grading
	// peers arrive as GradeNone and are re-graded by the origin trader.
	Grade match.Grade
	// Score orders matches of equal grade: the type-conformance score
	// (1.0 exact, decaying with declared subtype depth, 0.5 structural)
	// scaled down for partial-attribute matches so that every full
	// match outranks every partial one.
	Score float64
}

// ImportRequest is one import call (step 2 of Fig. 1). It doubles as
// the wire struct of the trader protocol; in-process callers usually
// build it with NewImport and the functional options (Where, OrderBy,
// Limit, Hops).
type ImportRequest struct {
	// Type is the requested service type.
	Type string
	// Constraint optionally filters by attribute values ("" matches all).
	Constraint string
	// Policy optionally orders the result ("" means "first").
	Policy string
	// Max bounds the number of returned offers (0 means all).
	Max int
	// HopLimit bounds federation forwarding; 0 searches only the local
	// trader, 1 also its direct partners, and so on.
	HopLimit int
	// MaxPeers bounds the number of partner traders consulted per hop
	// (0 means all eligible links — today's full fan-out).
	MaxPeers int
	// Hedge, when positive, queries one backup peer if the scattered
	// peers have not all answered within this delay.
	Hedge time.Duration
	// MinGrade floors the match grade of returned offers. The zero
	// value (GradeNone, what requests from pre-grading clients decode
	// to) keeps the classic behaviour: full matches only, exact or
	// conforming subtype. MinGrade(GradeExact) restricts to the literal
	// type; MinGrade(GradePartial) additionally surfaces offers whose
	// attributes satisfy only part of the constraint.
	MinGrade match.Grade

	// visited carries the trader IDs already consulted, for loop
	// protection across federation links.
	visited []string
}

// LinkDialer resolves a peer trader reference into a Federate; the
// wire-level LinkAdd operation uses it (see Trader.SetLinkDialer).
type LinkDialer func(ctx context.Context, peer ref.ServiceRef) (Federate, error)

// Federate is the linked-trader interface used for federation: both
// *Trader (in-process links) and *Client (remote links) implement it.
type Federate interface {
	// ImportGraded answers an import on behalf of a partner trader.
	// Peers that predate grading return GradeNone matches; the origin
	// trader re-grades those against its own hierarchy view.
	ImportGraded(ctx context.Context, req ImportRequest) ([]Match, error)
	// FederationID globally identifies the trader for loop protection.
	FederationID() string
}

// Trader is the ODP trading function: an offer store over a service type
// repository, with export/withdraw/replace/import operations, a
// management interface, and optional federation links. Safe for
// concurrent use.
//
// The offer store is sharded by service-type hash and serves imports
// from immutable per-type snapshots with attribute indexes (see
// offerStore), so the matching hot path takes no trader-wide lock.
type Trader struct {
	id    string
	types *typemgr.Repo
	store *offerStore
	seq   atomic.Uint64

	// mesh is the named federation link registry (see mesh.go); its
	// own mutex guards it, so concurrent AddLink and Import never race.
	mesh       *linkRegistry
	linkPolicy wire.BreakerPolicy
	linkDialer LinkDialer

	// Federation scatter tallies (see FedStats).
	fedImports atomic.Uint64
	fedPeers   atomic.Uint64
	fedRouted  atomic.Uint64
	fedFull    atomic.Uint64
	fedHedged  atomic.Uint64

	rngMu sync.Mutex
	rng   *rand.Rand

	now      func() time.Time
	useIndex bool

	// constraints caches compiled constraint expressions (bounded LRU;
	// nil disables caching).
	constraints *lruCache[*Constraint]

	// importTTL bounds how long an import result may be served from the
	// result cache; zero disables the cache.
	importTTL   time.Duration
	importCache *lruCache[*importCacheEntry]

	// journal, when attached via SetJournal, receives a logical record
	// for every offer and type mutation (see durable.go).
	journal *journal.Journal

	// applyMu orders journalled mutations against snapshot capture:
	// mutations hold it shared across append+apply, JournalSnapshot
	// holds it exclusively, so a snapshot never misses a journalled
	// record (see commit in durable.go).
	applyMu sync.RWMutex

	// repl carries the replication role, fencing epoch and follower
	// bookkeeping (see repl.go).
	repl replState

	log     *obs.Logger
	metrics traderMetrics

	// events, when attached via WithEvents, receives the trader's
	// cluster-lifecycle timeline: suspicion, candidacies, vote
	// grants/denials, promotions, demotions, fencing rejections,
	// snapshot installs and journal fail-stop latches. Nil-safe.
	events *obs.EventLog

	// votes, when attached via SetVoteLog, persists per-epoch vote
	// pledges so a restarted voter cannot grant two votes in one epoch
	// (see votelog.go).
	votes *VoteLog
}

// Default sizes of the trader's bounded caches.
const (
	defaultConstraintCacheSize = 256
	defaultImportCacheTTL      = 250 * time.Millisecond
	importCacheSize            = 512
)

// importCacheEntry is one cached import result plus everything needed
// to prove it still describes the store: the generation pair pins the
// set of matching types, the consulted bucket versions pin their
// contents, and expires bounds staleness by the trader's clock (and by
// the earliest lease expiry among the cached offers).
type importCacheEntry struct {
	expires   time.Time
	storeGen  uint64
	repoGen   uint64
	consulted []bucketVersion
	matches   []Match
}

// traderMetrics binds the cosm_trader_* metric families. The zero value
// (no registry) records nothing: obs instruments are nil-safe.
type traderMetrics struct {
	exports     *obs.Counter
	withdrawals *obs.Counter
	imports     *obs.CounterVec // by requested type
	matches     *obs.Histogram  // matches returned per import
	matchGrades *obs.CounterVec // by grade: exact, subtype, partial-attribute
	purged      *obs.Counter

	indexLookups     *obs.CounterVec // by index kind: eq, range, scan, linear
	snapshotRebuilds *obs.Counter
	importCache      *obs.CounterVec // by outcome: hit, miss
	constraintCache  *obs.CounterVec // by outcome: hit, miss

	replRecords       *obs.CounterVec // by direction: sent (leader), applied (follower)
	fencingRejections *obs.Counter
	elections         *obs.CounterVec // by outcome: won, lost, relocated, deposed

	fedScatter   *obs.CounterVec // by mode: routed, full
	fedConsulted *obs.Histogram  // peers consulted per federated import
	fedHedges    *obs.Counter
	fedTimeouts  *obs.Counter
	gossip       *obs.CounterVec // by outcome: accepted, stale, push_error
}

func newTraderMetrics(reg *obs.Registry) traderMetrics {
	if reg == nil {
		return traderMetrics{}
	}
	return traderMetrics{
		exports:     reg.Counter("cosm_trader_exports_total", "Offers exported."),
		withdrawals: reg.Counter("cosm_trader_withdrawals_total", "Offers withdrawn."),
		imports:     reg.CounterVec("cosm_trader_imports_total", "Import requests by requested service type.", "type"),
		matches:     reg.Histogram("cosm_trader_import_matches", "Offers returned per import.", obs.CountBuckets),
		matchGrades: reg.CounterVec("cosm_trader_match_grade_total", "Matches returned by semantic grade (exact, subtype, partial-attribute).", "grade"),
		purged:      reg.Counter("cosm_trader_offers_purged_total", "Expired offers reclaimed."),

		indexLookups:     reg.CounterVec("cosm_trader_index_lookups_total", "Type-bucket match passes by index kind (eq, range, scan, linear).", "kind"),
		snapshotRebuilds: reg.Counter("cosm_trader_index_snapshot_rebuilds_total", "Type snapshots rebuilt after writes."),
		importCache:      reg.CounterVec("cosm_trader_import_cache_total", "Import-result cache lookups by outcome.", "outcome"),
		constraintCache:  reg.CounterVec("cosm_trader_constraint_cache_total", "Compiled-constraint cache lookups by outcome.", "outcome"),

		replRecords:       reg.CounterVec("cosm_trader_repl_records_total", "Replication records by direction (sent by the leader, applied by the follower).", "dir"),
		fencingRejections: reg.Counter("cosm_trader_repl_fencing_rejections_total", "Replication batches or promotions rejected by epoch fencing."),
		elections:         reg.CounterVec("cosm_trader_elections_total", "Failover monitor outcomes (won, lost, relocated, deposed).", "outcome"),

		fedScatter:   reg.CounterVec("cosm_trader_fed_scatter_total", "Federated fan-outs by mode (routed by offer summaries, or full).", "mode"),
		fedConsulted: reg.Histogram("cosm_trader_fed_peers_consulted", "Peer traders consulted per federated import.", obs.CountBuckets),
		fedHedges:    reg.Counter("cosm_trader_fed_hedges_total", "Backup peer queries launched after the hedge delay."),
		fedTimeouts:  reg.Counter("cosm_trader_fed_gather_timeouts_total", "Federated gathers cut off at the deadline margin with peers still pending."),
		gossip:       reg.CounterVec("cosm_trader_gossip_total", "Offer-summary gossip by outcome (accepted, stale, push_error).", "outcome"),
	}
}

// Option configures a Trader.
type Option func(*Trader)

// WithoutOfferIndex makes imports scan all offers linearly instead of
// using the sharded type snapshots; only the offer-index ablation
// benchmark and the index-equivalence property test should want this.
func WithoutOfferIndex() Option {
	return func(t *Trader) { t.useIndex = false }
}

// WithConstraintCacheSize bounds the compiled-constraint LRU to n
// entries (default 256); n <= 0 disables the cache.
func WithConstraintCacheSize(n int) Option {
	return func(t *Trader) { t.constraints = newLRU[*Constraint](n) }
}

// WithImportCacheTTL bounds how long a local import result may be
// served from the result cache without re-matching (default 250ms).
// The cache is additionally invalidated by every store or type-repo
// mutation that could change the result, so the TTL only caps staleness
// relative to lease expiry of remote clocks. A non-positive d disables
// the cache.
func WithImportCacheTTL(d time.Duration) Option {
	return func(t *Trader) { t.importTTL = d }
}

// WithClock injects a time source for lease handling (tests use a fake
// clock).
func WithClock(now func() time.Time) Option {
	return func(t *Trader) { t.now = now }
}

// WithLogger routes the trader's structured log through l: every
// import, export and withdrawal emits one event line, and imports are
// tagged with the trace carried by their context — the line that makes
// a federated import visible in each consulted trader's log under one
// trace ID. A nil l disables logging.
func WithLogger(l *obs.Logger) Option {
	return func(t *Trader) { t.log = l }
}

// WithMetrics records the trader's market activity — exports,
// withdrawals, imports by type, matches per import, purged offers,
// index/cache effectiveness and the live offer count — into reg's
// cosm_trader_* families. A nil reg disables recording.
func WithMetrics(reg *obs.Registry) Option {
	return func(t *Trader) {
		t.metrics = newTraderMetrics(reg)
		if reg != nil {
			reg.GaugeFunc("cosm_trader_offers", "Stored, unexpired offers.",
				func() float64 { return float64(t.OfferCount()) })
			reg.GaugeFunc("cosm_trader_epoch", "Current fencing epoch of the replication group.",
				func() float64 { return float64(t.Epoch()) })
			reg.GaugeFunc("cosm_trader_repl_lag_records", "Records the follower still has to apply (0 on a leader).",
				func() float64 { return float64(t.replLagRecords()) })
			reg.GaugeFunc("cosm_trader_repl_lag_seconds", "Seconds since the follower was last caught up with its leader (0 when caught up or leading).",
				func() float64 { return t.replLagSeconds() })
			reg.GaugeFunc("cosm_trader_links", "Registered federation links.",
				func() float64 { return float64(t.LinkCount()) })
		}
	}
}

// WithLinkPolicy configures the per-link circuit breakers of the
// federation link registry (default: the pool's DefaultBreakerPolicy).
// A policy with Threshold < 1 disables per-link breaking.
func WithLinkPolicy(policy wire.BreakerPolicy) Option {
	return func(t *Trader) { t.linkPolicy = policy }
}

// WithEvents feeds the trader's cluster-lifecycle transitions into ev,
// the node's event timeline (exposed at /debug/events and merged
// cluster-wide by `cosmcli events`). A nil ev disables the feed.
func WithEvents(ev *obs.EventLog) Option {
	return func(t *Trader) { t.events = ev }
}

// event appends one timeline event; safe on a trader with no event log.
func (t *Trader) event(kind string, kv ...string) {
	t.events.Record(kind, kv...)
}

// WithReplSync makes mutations block until n followers have pulled the
// mutation's journal record (synchronous replication): an acknowledged
// export then survives the loss of the leader, because at least n
// followers hold it. timeout bounds the wait; on expiry the mutation
// fails, though its record stays in the leader's log (the ambiguity any
// synchronous-replication timeout has). n <= 0 keeps the default
// asynchronous mode.
func WithReplSync(n int, timeout time.Duration) Option {
	return func(t *Trader) {
		t.repl.syncN = n
		t.repl.syncWait = timeout
	}
}

// New returns a trader with the given identity over the given type
// repository. The identity must be unique within a federation.
func New(id string, types *typemgr.Repo, opts ...Option) *Trader {
	t := &Trader{
		id:          id,
		types:       types,
		rng:         rand.New(rand.NewSource(1)),
		now:         time.Now,
		useIndex:    true,
		constraints: newLRU[*Constraint](defaultConstraintCacheSize),
		importTTL:   defaultImportCacheTTL,
		linkPolicy:  wire.DefaultBreakerPolicy(),
	}
	for _, o := range opts {
		o(t)
	}
	t.mesh = newLinkRegistry(t.linkPolicy)
	if t.importTTL > 0 {
		t.importCache = newLRU[*importCacheEntry](importCacheSize)
	}
	t.store = newOfferStore(types, func() time.Time { return t.now() })
	t.store.rebuilds = t.metrics.snapshotRebuilds
	return t
}

// Types exposes the management interface: the underlying service type
// repository (insert and delete service type entries, section 2.1).
func (t *Trader) Types() *typemgr.Repo { return t.types }

// FederationID implements Federate.
func (t *Trader) FederationID() string { return t.id }

// Export registers a service offer (step 1 of Fig. 1): the offer must
// name a registered service type and carry values for all of the type's
// attributes. It returns the assigned offer ID. The offer never expires;
// use ExportLease for leased offers.
func (t *Trader) Export(serviceType string, r ref.ServiceRef, props []sidl.Property) (string, error) {
	return t.ExportLease(serviceType, r, props, 0)
}

// ExportLease registers an offer with a lease: after ttl the offer stops
// matching and is reclaimed by PurgeExpired. ttl zero means no expiry.
func (t *Trader) ExportLease(serviceType string, r ref.ServiceRef, props []sidl.Property, ttl time.Duration) (string, error) {
	if err := t.leaderCheck(); err != nil {
		return "", err
	}
	if err := checkExport(t.types, serviceType, ttl, props); err != nil {
		return "", err
	}
	offer := t.makeOffer(serviceType, r, props, ttl)
	// WAL-first: a crash after the append replays the export, a crash
	// before it rejects the call — never a silently lost offer.
	applied, err := t.commit(&mutation{op: opExport, offers: []*Offer{offer}})
	for _, o := range applied {
		t.noteExport(o, ttl)
	}
	if err != nil {
		return "", err
	}
	return offer.ID, nil
}

func checkExport(types *typemgr.Repo, serviceType string, ttl time.Duration, props []sidl.Property) error {
	if ttl < 0 {
		return fmt.Errorf("trader: negative lease %v", ttl)
	}
	return types.CheckOffer(serviceType, props)
}

// propMap indexes a validated property list by name.
func propMap(props []sidl.Property) map[string]sidl.Lit {
	m := make(map[string]sidl.Lit, len(props))
	for _, p := range props {
		m[p.Name] = p.Value
	}
	return m
}

// makeOffer builds one pre-validated offer with a fresh ID; the caller
// commits it.
func (t *Trader) makeOffer(serviceType string, r ref.ServiceRef, props []sidl.Property, ttl time.Duration) *Offer {
	id := t.id + "/o" + strconv.FormatUint(t.seq.Add(1), 10)
	offer := &Offer{ID: id, Type: serviceType, Ref: r, Props: propMap(props)}
	if ttl > 0 {
		offer.Expires = t.now().Add(ttl)
	}
	return offer
}

// noteExport counts and logs one live export. Only the live path calls
// it: replayed and replicated exports are not market activity here.
func (t *Trader) noteExport(o *Offer, ttl time.Duration) {
	t.metrics.exports.Inc()
	t.log.Log(nil, "export", "offer", o.ID, "type", o.Type, "ref", o.Ref.String(), "ttl", ttl)
}

// noteWithdrawals counts and logs live withdrawals.
func (t *Trader) noteWithdrawals(gone []*Offer) {
	for _, o := range gone {
		t.metrics.withdrawals.Inc()
		t.log.Log(nil, "withdraw", "offer", o.ID, "type", o.Type)
	}
}

// ExportItem is one offer of an ExportAll batch.
type ExportItem struct {
	Type  string
	Ref   ref.ServiceRef
	Props []sidl.Property
	// TTL is the offer's lease; zero means no expiry.
	TTL time.Duration
}

// ExportAll registers a batch of offers in one call — the bulk path a
// provider daemon uses to publish its whole catalogue without one wire
// round trip per offer. The batch is validated up front and registers
// either completely or not at all; the returned IDs parallel items.
func (t *Trader) ExportAll(items []ExportItem) ([]string, error) {
	if err := t.leaderCheck(); err != nil {
		return nil, err
	}
	for i := range items {
		if err := checkExport(t.types, items[i].Type, items[i].TTL, items[i].Props); err != nil {
			return nil, fmt.Errorf("trader: batch item %d: %w", i, err)
		}
	}
	offers := make([]*Offer, len(items))
	ids := make([]string, len(items))
	for i := range items {
		offers[i] = t.makeOffer(items[i].Type, items[i].Ref, items[i].Props, items[i].TTL)
		ids[i] = offers[i].ID
	}
	// One mutation, hence one journal record, covers the whole batch: it
	// registers completely or not at all, matching the call's atomicity
	// contract.
	applied, err := t.commit(&mutation{op: opExport, offers: offers})
	for i, o := range applied {
		t.noteExport(o, items[i].TTL)
	}
	if err != nil {
		return nil, err
	}
	return ids, nil
}

// ExportSID registers an offer directly from a SID carrying a
// COSM_TraderExport module — the integration path of section 4.1. The
// service type is taken from the export's TOD field.
func (t *Trader) ExportSID(sid *sidl.SID, r ref.ServiceRef) (string, error) {
	if sid.Trader == nil {
		return "", fmt.Errorf("%w: SID %s has no trader export", typemgr.ErrBadType, sid.ServiceName)
	}
	return t.Export(sid.Trader.TypeOfService, r, sid.Trader.Properties)
}

// target is the shared gate of the single-offer mutations: only a leader
// mutates, and — the log carries no rejected operations — an ID the
// store does not hold is refused before anything is journalled. A
// concurrent withdrawal may still win the race to apply; the then-empty
// record is idempotent on replay and oneApplied reports the offer
// unknown all the same.
func (t *Trader) target(offerID string) (*Offer, error) {
	if err := t.leaderCheck(); err != nil {
		return nil, err
	}
	offer, ok := t.store.lookup(offerID)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrOfferUnknown, offerID)
	}
	return offer, nil
}

// oneApplied turns the outcome of a single-offer commit into the call's
// error: losing the race described at target leaves nothing applied and
// surfaces as ErrOfferUnknown.
func oneApplied(applied []*Offer, err error, offerID string) error {
	if err == nil && len(applied) == 0 {
		return fmt.Errorf("%w: %q", ErrOfferUnknown, offerID)
	}
	return err
}

// Withdraw removes an offer by ID.
func (t *Trader) Withdraw(offerID string) error {
	if _, err := t.target(offerID); err != nil {
		return err
	}
	gone, err := t.commit(&mutation{op: opWithdraw, ids: []string{offerID}})
	t.noteWithdrawals(gone)
	return oneApplied(gone, err, offerID)
}

// WithdrawAll removes a batch of offers and returns how many were
// actually withdrawn. Unknown IDs are skipped, so the call is
// idempotent — the shape a provider's shutdown path wants. A follower
// refuses with ErrNotLeader like every other mutation. A journal append
// failure is logged and the in-memory withdrawal proceeds: the call's
// contract is idempotent best-effort, and a provider retry after a
// recovery that resurrected the offers heals the divergence. A sync-
// replication timeout, as for Withdraw, is an error after the withdrawal
// was applied: the count comes back beside it, but the wire op carries
// only the error, so a remote retry finds the offers gone and reports 0.
func (t *Trader) WithdrawAll(offerIDs []string) (int, error) {
	if err := t.leaderCheck(); err != nil {
		return 0, err
	}
	if len(offerIDs) == 0 {
		return 0, nil
	}
	m := &mutation{op: opWithdrawAll, ids: offerIDs}
	gone, err := t.commit(m)
	if errors.Is(err, errJournalAppend) {
		t.log.Log(nil, "journal_error", "op", opWithdrawAll, "err", err.Error())
		gone, err = t.apply(m), nil
	}
	t.noteWithdrawals(gone)
	return len(gone), err
}

// Replace atomically replaces the properties of an existing offer (the
// "replacing of exported services" operation of section 2.1). The new
// properties must still satisfy the offer's service type.
func (t *Trader) Replace(offerID string, props []sidl.Property) error {
	offer, err := t.target(offerID)
	if err != nil {
		return err
	}
	if err := t.types.CheckOffer(offer.Type, props); err != nil {
		return err
	}
	applied, err := t.commit(&mutation{op: opReplace, ids: []string{offerID}, props: propMap(props)})
	return oneApplied(applied, err, offerID)
}

// MarkSuspect flags or clears the liveness suspicion on an offer (see
// Offer.Suspect). It is called by the Sweeper; operators can also set
// it by hand through the management view.
func (t *Trader) MarkSuspect(offerID string, suspect bool) error {
	if _, err := t.target(offerID); err != nil {
		return err
	}
	applied, err := t.commit(&mutation{op: opSuspect, ids: []string{offerID}, suspect: suspect})
	return oneApplied(applied, err, offerID)
}

// OfferCount returns the number of stored, unexpired offers.
func (t *Trader) OfferCount() int {
	return t.store.count(t.now())
}

// Offers returns a snapshot of all stored, unexpired offers, sorted by
// ID — the management view a trader operator inspects. The offers are
// deep copies and safe to modify.
func (t *Trader) Offers() []*Offer {
	live := t.store.live(t.now())
	out := make([]*Offer, len(live))
	for i, o := range live {
		out[i] = o.clone()
	}
	return out
}

// PurgeExpired removes offers whose lease has run out and returns how
// many were reclaimed.
func (t *Trader) PurgeExpired() int {
	if t.repl.follower.Load() {
		// Purges replicate from the leader's journal (they carry the
		// leader's purge instant); expired offers stop matching locally
		// regardless, so a follower never purges on its own.
		return 0
	}
	// Apply first, journal only a purge that reclaimed something (the
	// sweeper calls this every round), with the purge instant: replay
	// re-evaluates expiry against the same absolute time, so recovery
	// reclaims exactly the offers this call did. Apply-before-append only
	// ever leaves a snapshot ahead of the watermark, which replay tolerates.
	m := &mutation{op: opPurge, at: t.now()}
	n := len(t.apply(m))
	if n > 0 {
		if err := t.journalRecord(m.record()); err != nil {
			t.log.Log(nil, "journal_error", "op", opPurge, "err", err.Error())
		}
		t.metrics.purged.Add(uint64(n))
		t.log.Log(nil, "purge", "reclaimed", n)
	}
	return n
}

// effectiveMinGrade maps a request's grade floor to the engine's: the
// zero value (unset, and what pre-grading peers send) means the classic
// behaviour — full matches only, exact type or conforming subtype.
func effectiveMinGrade(g match.Grade) match.Grade {
	if g == match.GradeNone {
		return match.GradeSubtype
	}
	return g
}

// Import matches a request against the local offer store and, when the
// request's hop limit permits, against federated partner traders
// (step 2/3 of Fig. 1). Results are constraint-filtered, policy-ordered,
// deduplicated by service reference, and truncated to Max. It is
// ImportGraded with the grades dropped.
//
// The returned offers are shared immutable snapshots; callers must not
// modify them.
func (t *Trader) Import(ctx context.Context, req ImportRequest) ([]*Offer, error) {
	return offersOf(t.ImportGraded(ctx, req))
}

// offersOf projects a graded import result onto its offers.
func offersOf(ms []Match, err error) ([]*Offer, error) {
	if err != nil {
		return nil, err
	}
	offers := make([]*Offer, len(ms))
	for i := range ms {
		offers[i] = ms[i].Offer
	}
	return offers, nil
}

// ImportGraded is the semantic import: every returned offer carries the
// grade and score the matcher assigned it (exact type, conforming
// subtype, or — when req.MinGrade admits it — partial attribute
// satisfaction). See Import for the ungraded projection and the
// result-ordering contract.
func (t *Trader) ImportGraded(ctx context.Context, req ImportRequest) ([]Match, error) {
	t.metrics.imports.With(req.Type).Inc()
	constraint, err := t.compile(req.Constraint)
	if err != nil {
		return nil, err
	}
	policy, err := ParsePolicy(req.Policy)
	if err != nil {
		return nil, err
	}
	minGrade := effectiveMinGrade(req.MinGrade)

	// Purely local, deterministically ordered imports can be answered
	// from the result cache: entries are invalidated by any store or
	// type-repo change that could alter the result, so the TTL only
	// bounds reuse, it never hides a change.
	now := t.now()
	cacheable := t.importCache != nil && t.useIndex && req.HopLimit == 0 && policy.cacheable()
	var key string
	var storeGen, repoGen uint64
	if cacheable {
		key = req.Type + "\x1f" + req.Constraint + "\x1f" + req.Policy + "\x1f" +
			strconv.Itoa(req.Max) + "\x1f" + strconv.Itoa(int(minGrade))
		if e, ok := t.importCache.get(key); ok && !now.After(e.expires) && t.store.validate(e) {
			t.metrics.importCache.With("hit").Inc()
			matches := append([]Match(nil), e.matches...)
			t.recordMatches(matches)
			t.log.Log(ctx, "import", "type", req.Type, "constraint", req.Constraint,
				"hoplimit", req.HopLimit, "matches", len(matches), "cache", "hit")
			return matches, nil
		}
		t.metrics.importCache.With("miss").Inc()
		// Capture the generations before reading any snapshot: a write
		// racing with the match pass then fails the entry's validation.
		storeGen, repoGen = t.store.gens()
	}

	matches, consulted := t.localMatches(req.Type, constraint, minGrade)

	if req.HopLimit > 0 {
		matches = append(matches, t.federatedMatches(ctx, req)...)
	}

	// Deduplicate by target reference: the same service exported at two
	// federated traders is still one service. First occurrence wins, so
	// a local (already grade-ordered-by-bucket) match shadows a remote
	// duplicate of the same service.
	seen := make(map[ref.ServiceRef]bool, len(matches))
	unique := matches[:0]
	for _, m := range matches {
		if seen[m.Ref] {
			continue
		}
		seen[m.Ref] = true
		unique = append(unique, m)
	}
	matches = unique

	t.rngMu.Lock()
	policy.apply(matches, t.rng)
	t.rngMu.Unlock()

	// Stable partition: healthy offers precede suspect ones, each class
	// keeping its policy order. A suspect provider may be fine (the
	// probe failure could be transient), but importers walking the list
	// front-to-back — in particular the bind failover path — should
	// reach live providers first.
	sort.SliceStable(matches, func(i, j int) bool {
		return !matches[i].Suspect && matches[j].Suspect
	})

	if req.Max > 0 && len(matches) > req.Max {
		matches = matches[:req.Max]
	}

	if cacheable {
		expires := now.Add(t.importTTL)
		for _, m := range matches {
			// A cached result must not outlive its shortest lease.
			if !m.Expires.IsZero() && m.Expires.Before(expires) {
				expires = m.Expires
			}
		}
		t.importCache.add(key, &importCacheEntry{
			expires:   expires,
			storeGen:  storeGen,
			repoGen:   repoGen,
			consulted: consulted,
			matches:   append([]Match(nil), matches...),
		})
	}

	t.recordMatches(matches)
	// The import line carries the trace from ctx, so a federated import
	// shows up in each consulted trader's log under one trace ID.
	t.log.Log(ctx, "import", "type", req.Type, "constraint", req.Constraint,
		"hoplimit", req.HopLimit, "matches", len(matches))
	return matches, nil
}

// recordMatches feeds the per-import match count and per-grade tallies.
func (t *Trader) recordMatches(ms []Match) {
	t.metrics.matches.Observe(float64(len(ms)))
	for _, m := range ms {
		t.metrics.matchGrades.With(m.Grade.String()).Inc()
	}
}

// compile returns the compiled form of a constraint expression, served
// from the bounded LRU when possible.
func (t *Trader) compile(src string) (*Constraint, error) {
	if t.constraints == nil {
		return Compile(src)
	}
	if c, ok := t.constraints.get(src); ok {
		t.metrics.constraintCache.With("hit").Inc()
		return c, nil
	}
	c, err := Compile(src)
	if err != nil {
		return nil, err
	}
	t.metrics.constraintCache.With("miss").Inc()
	t.constraints.add(src, c)
	return c, nil
}

// localMatches is the matcher over the local store. Phase 1 resolves
// the requested type to the stored buckets of its graded conformant
// closure; phases 2 and 3 filter each bucket through the compiled
// constraint (index-narrowed when only full matches are wanted) and
// grade the survivors. A bucket whose type grade is below the floor is
// skipped outright unless the floor admits partial-attribute matches,
// which any conformant offer may still yield. The result is sorted by
// offer ID; the bucket versions consulted feed the import-result cache.
// Offers are shared immutable snapshots.
func (t *Trader) localMatches(reqType string, constraint *Constraint, minGrade match.Grade) ([]Match, []bucketVersion) {
	now := t.now()
	if !t.useIndex {
		return t.linearMatches(reqType, constraint, minGrade, now), nil
	}
	var matches []Match
	var consulted []bucketVersion
	for _, tm := range t.store.resolve(reqType) {
		if minGrade > match.GradePartial && !tm.Grade.AtLeast(minGrade) {
			continue
		}
		snap, ok := t.store.snapshot(tm.Name)
		if !ok {
			continue // withdrawn since resolve; the gens catch it
		}
		consulted = append(consulted, bucketVersion{name: tm.Name, version: snap.version})
		matches = t.appendBucket(matches, snap, tm, constraint, minGrade, now)
	}
	sort.Slice(matches, func(i, j int) bool { return matches[i].ID < matches[j].ID })
	return matches, consulted
}

// appendBucket is phase 2+3 for one conformant type bucket: candidate
// selection, constraint filtering and grading. When the grade floor
// excludes partial-attribute matches the candidate set is narrowed
// through the snapshot's attribute indexes (every index hint is a
// necessary condition of a *full* match); with a partial floor the
// whole bucket must be scanned, because an offer failing every hint may
// still satisfy some conjuncts.
func (t *Trader) appendBucket(out []Match, snap *typeSnapshot, tm match.TypeMatch, constraint *Constraint, minGrade match.Grade, now time.Time) []Match {
	if minGrade > match.GradePartial {
		candidates, kind := snap.candidates(constraint)
		t.metrics.indexLookups.With(kind).Inc()
		for _, o := range candidates {
			if !o.expired(now) && constraint.Match(o.Props) {
				out = append(out, Match{Offer: o, Grade: tm.Grade, Score: tm.Score})
			}
		}
		return out
	}
	t.metrics.indexLookups.With("scan").Inc()
	for _, o := range snap.offers {
		if !o.expired(now) {
			out = appendGraded(out, o, tm, constraint)
		}
	}
	return out
}

// appendGraded grades one type-conformant offer against the constraint
// — full (inheriting the bucket's type grade) or partial-attribute —
// and appends it; offers satisfying no conjunct are dropped.
func appendGraded(out []Match, o *Offer, tm match.TypeMatch, constraint *Constraint) []Match {
	sat, total := constraint.satisfied(o.Props)
	switch {
	case sat == total:
		out = append(out, Match{Offer: o, Grade: tm.Grade, Score: tm.Score})
	case sat > 0:
		out = append(out, Match{Offer: o, Grade: match.GradePartial, Score: match.PartialScore(tm.Score, sat, total)})
	}
	return out
}

// linearMatches is the WithoutOfferIndex oracle the index-equivalence
// property test compares against: no stored-bucket intersection, no
// snapshots, no index narrowing — a full-store scan with a per-offer
// closure lookup, implementing exactly the graded semantics of
// localMatches.
func (t *Trader) linearMatches(reqType string, constraint *Constraint, minGrade match.Grade, now time.Time) []Match {
	t.metrics.indexLookups.With("linear").Inc()
	grades := map[string]match.TypeMatch{}
	if cl, err := t.types.ConformingTypes(reqType); err == nil {
		for _, tm := range match.GradeClosure(cl) {
			grades[tm.Name] = tm
		}
	} else {
		// Unknown request type: only literal type names match.
		grades[reqType] = match.TypeMatch{Name: reqType, Grade: match.GradeExact, Score: match.ScoreExact}
	}
	var matches []Match
	for _, o := range t.store.all() {
		tm, ok := grades[o.Type]
		if !ok || o.expired(now) {
			continue
		}
		if minGrade > match.GradePartial {
			if tm.Grade.AtLeast(minGrade) && constraint.Match(o.Props) {
				matches = append(matches, Match{Offer: o, Grade: tm.Grade, Score: tm.Score})
			}
			continue
		}
		matches = appendGraded(matches, o, tm, constraint)
	}
	sort.Slice(matches, func(i, j int) bool { return matches[i].ID < matches[j].ID })
	return matches
}

// regradeRemote grades matches relayed by pre-grading peers (GradeNone
// on the wire) against this trader's own hierarchy view and drops
// anything below the request's effective grade floor — the tolerant-
// decode half of wire compatibility: an old peer's answer degrades to
// its vouched-for match set instead of erroring.
func (t *Trader) regradeRemote(reqType string, minGrade match.Grade, ms []Match) []Match {
	var cl []match.TypeMatch
	if c, err := t.types.ConformingTypes(reqType); err == nil {
		cl = match.GradeClosure(c)
	}
	kept := ms[:0]
	for _, m := range ms {
		if m.Grade == match.GradeNone {
			m.Grade, m.Score = match.GradeRemote(reqType, m.Type, cl)
		}
		if m.Grade.AtLeast(minGrade) {
			kept = append(kept, m)
		}
	}
	return kept
}
