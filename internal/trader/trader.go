// Package trader implements the ODP trading function of the paper
// (section 2): service offers classified by service types, exported by
// service providers and imported by clients through typed, constrained,
// policy-driven matching — plus trader federation for wider scopes.
//
// The trader proper — offer store, constraint language, policies,
// matcher — is package core, one directory down. This package is the
// shell around it: offer IDs, the clock, type checking, the journal
// (durable.go), the HA cell (repl.go, election.go, votelog.go), the
// mesh (mesh.go, gossip.go, sweeper.go) and RPC (service.go, client.go).
package trader

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"cosm/internal/journal"
	"cosm/internal/match"
	"cosm/internal/obs"
	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/trader/core"
	"cosm/internal/typemgr"
	"cosm/internal/wire"
)

// Errors reported by the trader.
var (
	ErrOfferUnknown = errors.New("trader: unknown offer")
	ErrNoOffer      = errors.New("trader: no matching offer")
)

// The core's types and functions, under the names this package has
// always exported them by; package core documents them.
type (
	Offer       = core.Offer
	Match       = core.Match
	OfferRecord = core.OfferRecord
	PropRecord  = core.PropRecord
	Constraint  = core.Constraint
	Policy      = core.Policy
)

// Errors wrapped by constraint and policy parse failures.
var (
	ErrConstraint = core.ErrConstraint
	ErrPolicy     = core.ErrPolicy
)

// Compile parses a constraint expression.
func Compile(src string) (*Constraint, error) { return core.Compile(src) }

// MustCompile is Compile for statically known expressions.
func MustCompile(src string) *Constraint { return core.MustCompile(src) }

// ParsePolicy parses a policy string; "" means "first".
func ParsePolicy(src string) (Policy, error) { return core.ParsePolicy(src) }

// OfferFromRecord reverses (*Offer).Record.
func OfferFromRecord(rec OfferRecord) (*Offer, error) { return core.OfferFromRecord(rec) }

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
type Trader struct {
	id    string
	types *typemgr.Repo
	seq   atomic.Uint64

	// core is the market state: every offer lives there, every mutation
	// ends in its Apply and every import in its Import. coreOpts is what
	// the options asked of it; New builds core from them.
	core     *core.State
	coreOpts core.Options

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

	// now and pause are the trader's one seam onto time: every clock
	// read, and every wait of the cell loops and of synchronous
	// replication — for d, until ctx ends, or until wake delivers (nil
	// never does). The cell simulation swaps both for a virtual clock.
	now   func() time.Time
	pause func(ctx context.Context, d time.Duration, wake <-chan struct{})

	// journal, when attached via SetJournal, receives a logical record
	// for every offer and type mutation (see durable.go).
	journal *journal.Journal

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
}

// defaultConstraintCacheSize bounds the core's compiled-constraint LRU.
const defaultConstraintCacheSize = 256

// traderMetrics binds the cosm_trader_* metric families. The zero value
// (no registry) records nothing: obs instruments are nil-safe.
type traderMetrics struct {
	exports     *obs.Counter
	withdrawals *obs.Counter
	imports     *obs.CounterVec // by requested type
	matches     *obs.Histogram  // matches returned per import
	matchGrades *obs.CounterVec // by grade: exact, subtype, partial-attribute
	purged      *obs.Counter

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
	return traderMetrics{
		exports:     reg.Counter("cosm_trader_exports_total", "Offers exported."),
		withdrawals: reg.Counter("cosm_trader_withdrawals_total", "Offers withdrawn."),
		imports:     reg.CounterVec("cosm_trader_imports_total", "Import requests by requested service type.", "type"),
		matches:     reg.Histogram("cosm_trader_import_matches", "Offers returned per import.", obs.CountBuckets),
		matchGrades: reg.CounterVec("cosm_trader_match_grade_total", "Matches returned by semantic grade (exact, subtype, partial-attribute).", "grade"),
		purged:      reg.Counter("cosm_trader_offers_purged_total", "Expired offers reclaimed."),

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
	return func(t *Trader) { t.coreOpts.Linear = true }
}

// WithConstraintCacheSize bounds the compiled-constraint LRU to n
// entries (default 256); n <= 0 disables the cache.
func WithConstraintCacheSize(n int) Option {
	return func(t *Trader) { t.coreOpts.ConstraintCacheSize = n }
}

// WithImportCacheTTL does nothing: every import matches against the
// store, and there is no import-result cache to bound.
//
// Deprecated: kept only for the benchmark harness, which still passes
// it; it goes when the harness stops.
func WithImportCacheTTL(time.Duration) Option {
	return func(*Trader) {}
}

// withClock injects a time source for lease handling (tests use a fake
// clock).
func withClock(now func() time.Time) Option {
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
		t.coreOpts.Metrics = reg
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

// withLinkPolicy configures the per-link circuit breakers of the
// federation link registry (default: the pool's DefaultBreakerPolicy;
// only tests set another). A policy with Threshold < 1 disables
// per-link breaking.
func withLinkPolicy(policy wire.BreakerPolicy) Option {
	return func(t *Trader) { t.linkPolicy = policy }
}

// WithEvents feeds the trader's cluster-lifecycle transitions into ev,
// the node's event timeline (exposed at /debug/events and merged
// cluster-wide by `cosmcli events`). A nil ev disables the feed.
func WithEvents(ev *obs.EventLog) Option {
	return func(t *Trader) { t.events = ev }
}

// event records one cluster event twice over: in the timeline, and as
// the log line of the same kind and attributes, tagged with the trace
// ctx carries. Safe on a trader with no event log or logger.
func (t *Trader) event(ctx context.Context, kind string, kv ...string) {
	t.events.Record(kind, kv...)
	args := make([]any, len(kv))
	for i, v := range kv {
		args[i] = v
	}
	t.log.Log(ctx, kind, args...)
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
		id:         id,
		types:      types,
		now:        time.Now,
		pause:      wallPause,
		linkPolicy: wire.DefaultBreakerPolicy(),
		coreOpts:   core.Options{ConstraintCacheSize: defaultConstraintCacheSize},
	}
	for _, o := range opts {
		o(t)
	}
	t.mesh = newLinkRegistry(t.linkPolicy)
	t.core = core.New(types, t.coreOpts)
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
	if err := checkExport(t.types, serviceType, r, ttl, props); err != nil {
		return "", err
	}
	offer := t.makeOffer(serviceType, r, props, ttl)
	// WAL-first: a crash after the append replays the export, a crash
	// before it rejects the call — never a silently lost offer.
	applied, err := t.commit(&core.Mutation{Op: core.OpExport, Offers: []*Offer{offer}})
	for _, o := range applied {
		t.noteExport(o, ttl)
	}
	if err != nil {
		return "", err
	}
	return offer.ID, nil
}

// checkExport validates one offer before anything is journalled. Its
// ref must survive its textual form: the journal records it as text and
// every import carries it as text, so a ref that does not would break
// recovery, or every import of its type, long after it was accepted.
func checkExport(types *typemgr.Repo, serviceType string, r ref.ServiceRef, ttl time.Duration, props []sidl.Property) error {
	if ttl < 0 {
		return fmt.Errorf("trader: negative lease %v", ttl)
	}
	if err := r.Check(); err != nil {
		return fmt.Errorf("trader: offer target: %w", err)
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
		if err := checkExport(t.types, items[i].Type, items[i].Ref, items[i].TTL, items[i].Props); err != nil {
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
	applied, err := t.commit(&core.Mutation{Op: core.OpExport, Offers: offers})
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
	offer, ok := t.core.Lookup(offerID)
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
	gone, err := t.commit(&core.Mutation{Op: core.OpWithdraw, IDs: []string{offerID}})
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
// was applied: the count comes back beside it — over the wire in the
// error's detail (Client.WithdrawAll).
func (t *Trader) WithdrawAll(offerIDs []string) (int, error) {
	if err := t.leaderCheck(); err != nil {
		return 0, err
	}
	if len(offerIDs) == 0 {
		return 0, nil
	}
	m := &core.Mutation{Op: core.OpWithdrawAll, IDs: offerIDs}
	gone, err := t.commit(m)
	if errors.Is(err, errJournalAppend) {
		t.log.Log(nil, "journal_error", "op", m.Op, "err", err.Error())
		gone, err = t.core.Apply(m), nil
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
	applied, err := t.commit(&core.Mutation{Op: core.OpReplace, IDs: []string{offerID}, Props: propMap(props)})
	return oneApplied(applied, err, offerID)
}

// MarkSuspect flags or clears the liveness suspicion on an offer (see
// Offer.Suspect). It is called by the Sweeper; operators can also set
// it by hand through the management view.
func (t *Trader) MarkSuspect(offerID string, suspect bool) error {
	if _, err := t.target(offerID); err != nil {
		return err
	}
	applied, err := t.commit(&core.Mutation{Op: core.OpSuspect, IDs: []string{offerID}, Suspect: suspect})
	return oneApplied(applied, err, offerID)
}

// OfferCount returns the number of stored, unexpired offers.
func (t *Trader) OfferCount() int {
	return t.core.Count(t.now())
}

// Offers returns a snapshot of all stored, unexpired offers, sorted by
// ID — the management view a trader operator inspects. The offers are
// deep copies and safe to modify.
func (t *Trader) Offers() []*Offer {
	live := t.core.Live(t.now())
	out := make([]*Offer, len(live))
	for i, o := range live {
		out[i] = o.Clone()
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
	m := &core.Mutation{Op: core.OpPurge, At: t.now()}
	n := len(t.core.Apply(m))
	if n > 0 {
		if err := t.journalRecord(recordOf(m)); err != nil {
			t.log.Log(nil, "journal_error", "op", m.Op, "err", err.Error())
		}
		t.metrics.purged.Add(uint64(n))
		t.log.Log(nil, "purge", "reclaimed", n)
	}
	return n
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
	// Compile before fanning out: a malformed request is refused here and
	// never reaches — or counts against — a partner trader.
	q, err := t.core.Prepare(req.Type, req.Constraint, req.Policy, req.Max, req.MinGrade)
	if err != nil {
		return nil, err
	}
	var remote []Match
	if req.HopLimit > 0 {
		remote = t.federatedMatches(ctx, req)
	}
	matches := t.core.Import(q, remote, t.now())
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
