// Package core is the paper's trader and nothing else (section 2.1,
// Fig. 1): a type-checked offer store and a constrained, policy-ordered
// match over it. What makes the store durable, replicated, federated or
// remotely callable is package trader, one directory up.
//
// The core is a state machine: Apply is its one write (State × Mutation
// → State), Import its one read (State × Query × now → matches). Time
// arrives as an argument, never from a clock; the core starts no
// goroutine and opens no file, socket or journal (`make layers` holds
// it to that), so a caller that serialises its calls drives a
// deterministic machine.
package core

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cosm/internal/obs"
	"cosm/internal/sidl"
	"cosm/internal/typemgr"
)

// Options configures a State. The zero value is an indexed store with
// the constraint cache off and nothing recorded.
type Options struct {
	// Linear replaces the indexed snapshots by a scan of every offer:
	// the oracle the index-equivalence tests and ablation compare with.
	Linear bool
	// ConstraintCacheSize bounds the compiled-constraint LRU (<= 0: off).
	ConstraintCacheSize int
	// Metrics receives the index, snapshot and cache families.
	Metrics *obs.Registry
}

// State is the trader's market state: a sharded, snapshot-serving offer
// store over a service type repository, plus the read path's bounded
// caches. Safe for concurrent use.
//
// Writes (export, withdraw, replace, suspect-marking, purge) take one
// shard's write lock and swap offers copy-on-write: a stored *Offer is
// immutable from the moment it enters the store, so readers may hold it
// without locks or clones. Reads go through per-type immutable
// snapshots (see typeSnapshot), built on a type's first read and from
// then on derived by each write from the one before — imports therefore
// never block exports of other types, never pay an index build for a
// write, and take no state-wide lock.
type State struct {
	repo   *typemgr.Repo
	shards [storeShards]storeShard
	linear bool

	// typeSetGen is bumped whenever a type bucket appears or
	// disappears. Together with the repo generation it pins the set of
	// stored types matching a request type, validating the resolution
	// cache's entries.
	typeSetGen atomic.Uint64

	// resolutions caches request type -> conforming stored type names
	// (bounded: request types arrive from the network).
	resolutions *lruCache[*resolution]

	// constraints caches compiled constraint expressions (nil: off).
	constraints *lruCache[*Constraint]

	// rng drives the "random" policy; seeded, so a serialised caller
	// sees the same permutations run after run.
	rngMu sync.Mutex
	rng   *rand.Rand

	rebuilds        *obs.Counter    // snapshot builds (first reads)
	indexLookups    *obs.CounterVec // by index kind: eq, range, scan, ordered, linear
	compileOutcomes *obs.CounterVec // by outcome: hit, miss
}

// New returns an empty state over the given type repository.
func New(repo *typemgr.Repo, opts Options) *State {
	reg := opts.Metrics
	s := &State{
		repo:        repo,
		linear:      opts.Linear,
		resolutions: newLRU[*resolution](256, newCacheMetrics(reg, "resolution", "Request-type resolutions")),
		constraints: newLRU[*Constraint](opts.ConstraintCacheSize, newCacheMetrics(reg, "constraint", "Compiled constraints")),
		rng:         rand.New(rand.NewSource(1)),

		rebuilds:        reg.Counter("cosm_trader_index_snapshot_rebuilds_total", "Type snapshots built from scratch, on a type's first read; writes derive them."),
		indexLookups:    reg.CounterVec("cosm_trader_index_lookups_total", "Type-bucket match passes by index kind (eq, range, scan, ordered, linear).", "kind"),
		compileOutcomes: reg.CounterVec("cosm_trader_constraint_cache_total", "Compiled-constraint cache lookups by outcome.", "outcome"),
	}
	s.Clear() // allocates the shard maps
	return s
}

// Mutation operations. The names double as the journal's op strings, so
// a Mutation and its journal record name the operation identically.
const (
	OpExport      = "export"
	OpWithdraw    = "withdraw"
	OpWithdrawAll = "withdraw_all"
	OpReplace     = "replace"
	OpSuspect     = "suspect"
	OpPurge       = "purge"
)

// Mutation is one offer-store change, holding live values: the decoded
// form of a journal record. Fields an Op does not use stay zero.
type Mutation struct {
	Op      string
	Offers  []*Offer            // OpExport: the offers to store, IDs assigned, validated
	IDs     []string            // OpWithdraw, OpWithdrawAll, OpReplace, OpSuspect
	Props   map[string]sidl.Lit // OpReplace
	Suspect bool                // OpSuspect
	At      time.Time           // OpPurge: the purge instant
}

// Apply is the single place a mutation becomes store calls; live
// operations, recovery and replication all end here. It returns the
// offers the mutation touched — inserted, removed, or swapped in — so
// the live path can count and log them; IDs that no longer exist are
// skipped, which is what makes every mutation idempotent on replay.
// An Op outside the list above is a programming error and panics.
func (s *State) Apply(m *Mutation) []*Offer {
	update := func(set func(*Offer)) []*Offer {
		var fresh []*Offer
		for _, id := range m.IDs {
			if o, ok := s.update(id, set); ok {
				fresh = append(fresh, o)
			}
		}
		return fresh
	}
	switch m.Op {
	case OpExport:
		for _, o := range m.Offers {
			s.insert(o)
		}
		return m.Offers
	case OpWithdraw, OpWithdrawAll:
		var gone []*Offer
		for _, id := range m.IDs {
			if o, ok := s.remove(id); ok {
				gone = append(gone, o)
			}
		}
		return gone
	case OpReplace:
		return update(func(o *Offer) { o.Props = m.Props })
	case OpSuspect:
		return update(func(o *Offer) { o.Suspect = m.Suspect })
	case OpPurge:
		return s.purgeExpired(m.At)
	}
	panic("trader: apply: unknown mutation op " + m.Op)
}

// Lookup returns the stored offer by ID (shared, immutable), expired
// or not.
func (s *State) Lookup(id string) (*Offer, bool) {
	_, o := s.find(id)
	return o, o != nil
}

// eachLive calls fn for every stored offer unexpired at time now.
func (s *State) eachLive(now time.Time, fn func(*Offer)) {
	s.each(func(o *Offer) {
		if !o.Expired(now) {
			fn(o)
		}
	})
}

// Count returns the number of stored offers unexpired at time now.
func (s *State) Count(now time.Time) int {
	n := 0
	s.eachLive(now, func(*Offer) { n++ })
	return n
}

// TypeCounts returns the number of stored offers unexpired at time now
// per service type — the raw material of an offer summary.
func (s *State) TypeCounts(now time.Time) map[string]int {
	out := map[string]int{}
	s.eachLive(now, func(o *Offer) { out[o.Type]++ })
	return out
}

// Live returns every stored offer unexpired at time now (shared,
// immutable), sorted by ID.
func (s *State) Live(now time.Time) []*Offer {
	var out []*Offer
	s.eachLive(now, func(o *Offer) { out = append(out, o) })
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// All returns every stored offer, expired ones included (shared,
// immutable), in no particular order — what a durable snapshot holds
// and what the linear oracle scans.
func (s *State) All() []*Offer {
	var out []*Offer
	s.each(func(o *Offer) { out = append(out, o) })
	return out
}
