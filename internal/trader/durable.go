package trader

// Durable market state: the trader journals every offer-store and
// type-repo mutation as a logical JSON record into an attached
// write-ahead journal (internal/journal) and can rebuild itself from a
// snapshot plus a record replay.
//
// One mutation path: every offer-store change is a core.Mutation — the
// decoded form of a walRecord — and ends in core.State.Apply. A live
// operation validates, builds the mutation and commits it; recovery
// (ReplayRecord) and replication (ApplyBatch) decode a record and apply
// it. Live, recovered and replicated state agree by construction.
//
// Ordering discipline: offer mutations are journalled before they are
// applied (classic WAL — a crash may lose the in-memory effect but
// never the record), after validation has passed so the log carries no
// rejected operations. Type mutations validate-and-apply inside the
// repo, then journal; a lease purge applies first and is journalled
// only when it reclaimed something. All records are idempotent state
// setters: a compaction snapshot may be slightly newer than its
// watermark, so the records spanning the snapshot instant replay over
// state that already contains them.

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"cosm/internal/journal"
	"cosm/internal/sidl"
	"cosm/internal/trader/core"
	"cosm/internal/typemgr"
)

// Journal record operations beside the core's offer mutations
// (core.OpExport and friends), which keep their names on disk.
const (
	opDefineType = "deftype"
	opRemoveType = "removetype"
	opEpoch      = "epoch"
	// opVote records an election vote pledge. It lives only in the
	// per-node vote ledger (votelog.go), never in the replicated journal:
	// votes are per-node facts.
	opVote = "vote"
)

// walRecord is one logical journal record.
type walRecord struct {
	Op      string        `json:"op"`
	Offers  []OfferRecord `json:"offers,omitempty"` // export
	IDs     []string      `json:"ids,omitempty"`    // withdraw(_all), replace, suspect
	Props   []PropRecord  `json:"props,omitempty"`  // replace
	Suspect bool          `json:"suspect,omitempty"`
	At      int64         `json:"at,omitempty"`    // purge instant, UnixNano
	SIDL    string        `json:"sidl,omitempty"`  // deftype source text
	Name    string        `json:"name,omitempty"`  // removetype
	Epoch   uint64        `json:"epoch,omitempty"` // epoch (fencing term)
}

// recordOf renders a mutation in journal form.
func recordOf(m *core.Mutation) *walRecord {
	// Fields an op does not use stay empty and are omitted from the JSON.
	r := &walRecord{Op: m.Op, IDs: m.IDs, Suspect: m.Suspect, Props: core.PropsToRecords(m.Props)}
	r.Offers = make([]OfferRecord, len(m.Offers))
	for i, o := range m.Offers {
		r.Offers[i] = o.Record()
	}
	if !m.At.IsZero() {
		r.At = m.At.UnixNano()
	}
	return r
}

// mutation decodes an offer-store record; any other op is an error.
func (r *walRecord) mutation() (*core.Mutation, error) {
	m := &core.Mutation{Op: r.Op, IDs: r.IDs, Suspect: r.Suspect}
	switch r.Op {
	case core.OpExport:
		m.Offers = make([]*Offer, len(r.Offers))
		for i, rec := range r.Offers {
			o, err := OfferFromRecord(rec)
			if err != nil {
				return nil, err
			}
			m.Offers[i] = o
		}
	case core.OpWithdraw, core.OpWithdrawAll, core.OpSuspect:
	case core.OpReplace:
		props, err := core.PropsFromRecords(r.Props)
		if err != nil {
			return nil, err
		}
		m.Props = props
	case core.OpPurge:
		m.At = time.Unix(0, r.At)
	default:
		return nil, fmt.Errorf("unknown op %q", r.Op)
	}
	return m, nil
}

// errJournalAppend marks a commit whose record never reached the
// journal, so the mutation was not applied either.
var errJournalAppend = errors.New("trader: journal")

// commit makes one validated mutation durable and visible: append its
// record to the attached journal, apply it, and — when synchronous
// replication is configured — block until enough followers
// acknowledged the record's sequence number. Append and apply run
// under the apply lock so a concurrent snapshot can never capture a
// state that is missing a journalled record: the snapshot contract
// allows state ahead of the watermark (replay is idempotent), never
// behind it. The replication wait happens after the lock is released —
// it can take seconds, and a snapshot (or a bootstrapping follower's
// pull, whose ack is what the wait is for) must not block on it. The
// applied offers are returned even when the wait fails: the mutation
// is in the log and in the store by then.
func (t *Trader) commit(m *core.Mutation) ([]*Offer, error) {
	if t.journal == nil {
		return t.core.Apply(m), nil
	}
	epoch := t.Epoch()
	t.applyMu.RLock()
	seq, err := t.journal.AppendJSON(recordOf(m))
	if err != nil {
		t.applyMu.RUnlock()
		return nil, fmt.Errorf("%w: %w", errJournalAppend, err)
	}
	applied := t.core.Apply(m)
	t.applyMu.RUnlock()
	return applied, t.waitReplicated(seq, epoch)
}

// journalRecord appends a record whose effect is already in place — a
// type definition or removal the repo validated and applied, a purge
// that reclaimed something — and waits for replication like commit.
func (t *Trader) journalRecord(r *walRecord) error {
	if t.journal == nil {
		return nil
	}
	epoch := t.Epoch()
	t.applyMu.RLock()
	seq, err := t.journal.AppendJSON(r)
	t.applyMu.RUnlock()
	if err != nil {
		return fmt.Errorf("%w: %w", errJournalAppend, err)
	}
	return t.waitReplicated(seq, epoch)
}

// traderSnapshot is the compaction snapshot: the full offer store, the
// retained SIDL sources of journalled type definitions, and the offer
// ID counter.
type traderSnapshot struct {
	Seq    uint64        `json:"seq"`
	Epoch  uint64        `json:"epoch,omitempty"`
	Types  []string      `json:"types,omitempty"`
	Offers []OfferRecord `json:"offers,omitempty"`
}

// SetJournal attaches a started journal: from now on every offer and
// type mutation appends a logical record before it is applied. Call it
// after recovery (RestoreSnapshot + Replay) and before serving; it is
// not safe to swap journals on a live trader.
func (t *Trader) SetJournal(j *journal.Journal) {
	t.journal = j
	if j != nil {
		// The replication position starts at the recovered log tail: on a
		// follower this is where pulling resumes, on a leader it is inert.
		// The tail came from the leader of the recovered epoch.
		t.repl.applied.Store(j.Stats().LastSeq)
		t.repl.srcEpoch.Store(t.repl.epoch.Load())
		// Disk-fault demotion: a journal that latches fail-stop can no
		// longer persist acknowledged writes, so the trader immediately
		// stops leading and sheds mutations (keeping whatever leader
		// hint it has). PullBatch refuses to serve from a failed journal,
		// so followers' pulls start failing and the election monitor
		// promotes a healthy replica.
		j.SetOnFault(func(err error) {
			t.repl.follower.Store(true)
			t.event("journal_failstop", "err", err.Error())
			t.log.Log(nil, "journal_failstop", "err", err.Error())
		})
	}
}

// JournalSnapshot serialises the trader's durable state for journal
// compaction: every stored offer (expired ones included — replayed
// purge records re-reclaim them deterministically), the retained SIDL
// sources of type definitions, and the offer ID counter. Output is
// sorted for byte-stable snapshots.
func (t *Trader) JournalSnapshot() ([]byte, error) {
	// Exclude in-flight mutations: a record that is already in the
	// journal but not yet applied to the store would otherwise be
	// missing from a snapshot whose watermark covers it — and lost when
	// compaction deletes its segment, or when a follower bootstraps
	// from the snapshot.
	t.applyMu.Lock()
	defer t.applyMu.Unlock()
	snap := traderSnapshot{Seq: t.seq.Load(), Epoch: t.repl.epoch.Load()}
	sources := t.types.Sources()
	names := make([]string, 0, len(sources))
	for n := range sources {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		snap.Types = append(snap.Types, sources[n])
	}
	offers := t.core.All()
	sort.Slice(offers, func(i, j int) bool { return offers[i].ID < offers[j].ID })
	for _, o := range offers {
		snap.Offers = append(snap.Offers, o.Record())
	}
	return json.Marshal(snap)
}

// clearState empties the market a snapshot install is about to replace
// wholesale: the offers, the offer ID counter, and every type a record
// or snapshot defined, so a discarded journal tail leaves nothing
// behind. Types with no retained source were never journalled and stay.
func (t *Trader) clearState() {
	t.core.Clear()
	t.seq.Store(0)
	for name := range t.types.Sources() {
		// Journalled types come from SIDL, which names no supertype; only
		// an unjournalled subtype can keep one (ErrTypeInUse).
		_ = t.types.Remove(name)
	}
}

// RestoreSnapshot loads a compaction snapshot produced by
// JournalSnapshot into an empty trader. Call before Replay.
func (t *Trader) RestoreSnapshot(payload []byte) error {
	var snap traderSnapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		return fmt.Errorf("trader: snapshot: %w", err)
	}
	// Types may reference each other as supertypes; define in passes
	// until a fixed point so ordering never matters.
	pending := append([]string(nil), snap.Types...)
	for len(pending) > 0 {
		var stuck []string
		var lastErr error
		for _, src := range pending {
			if err := t.defineFromSIDL(src); err != nil {
				stuck = append(stuck, src)
				lastErr = err
			}
		}
		if len(stuck) == len(pending) {
			return fmt.Errorf("trader: snapshot types: %w", lastErr)
		}
		pending = stuck
	}
	offers := make([]*Offer, len(snap.Offers))
	for i, rec := range snap.Offers {
		o, err := OfferFromRecord(rec)
		if err != nil {
			return err
		}
		offers[i] = o
		t.bumpSeqFromID(o.ID)
	}
	t.core.Apply(&core.Mutation{Op: core.OpExport, Offers: offers})
	t.bumpSeq(snap.Seq)
	t.raiseEpoch(snap.Epoch)
	return nil
}

// ReplayRecord applies one journal record during recovery; pass it to
// journal.Replay. Records are idempotent, so replaying over a snapshot
// that already contains their effect is harmless.
func (t *Trader) ReplayRecord(seq uint64, payload []byte) error {
	var r walRecord
	if err := json.Unmarshal(payload, &r); err != nil {
		return fmt.Errorf("trader: journal record %d: %w", seq, err)
	}
	switch r.Op {
	case opDefineType:
		if err := t.defineFromSIDL(r.SIDL); err != nil {
			return fmt.Errorf("trader: journal record %d: %w", seq, err)
		}
	case opRemoveType:
		// ErrTypeUnknown is fine: a snapshot newer than the watermark
		// already excludes the type.
		if err := t.types.Remove(r.Name); err != nil && !errors.Is(err, typemgr.ErrTypeUnknown) {
			return fmt.Errorf("trader: journal record %d: %w", seq, err)
		}
	case opEpoch:
		t.raiseEpoch(r.Epoch)
	default:
		m, err := r.mutation()
		if err != nil {
			return fmt.Errorf("trader: journal record %d: %w", seq, err)
		}
		// Recovered and replicated IDs push the counter past themselves (a
		// live export drew its ID from it, so only this path parses them).
		for _, o := range m.Offers {
			t.bumpSeqFromID(o.ID)
		}
		t.core.Apply(m)
	}
	return nil
}

// defineFromSIDL parses a SIDL source carrying a trader export and
// registers the derived service type with its source retained. A type
// already registered under the same name is left alone (idempotent
// replay).
func (t *Trader) defineFromSIDL(text string) error {
	sid, err := sidl.Parse(text)
	if err != nil {
		return err
	}
	st, err := typemgr.FromSID(sid)
	if err != nil {
		return err
	}
	if err := t.types.DefineWithSource(st, text); err != nil {
		if _, lookupErr := t.types.Lookup(st.Name); lookupErr == nil {
			return nil // already defined
		}
		return err
	}
	return nil
}

// DefineTypeSIDL registers a service type from SIDL text carrying a
// COSM_TraderExport module (the maturation path of section 4.1) and
// journals the source text, so the definition survives a restart.
func (t *Trader) DefineTypeSIDL(text string) error {
	if err := t.leaderCheck(); err != nil {
		return err
	}
	sid, err := sidl.Parse(text)
	if err != nil {
		return err
	}
	st, err := typemgr.FromSID(sid)
	if err != nil {
		return err
	}
	if err := t.types.DefineWithSource(st, text); err != nil {
		return err
	}
	return t.journalRecord(&walRecord{Op: opDefineType, SIDL: text})
}

// RemoveType deletes a service type through the management interface
// and journals the removal.
func (t *Trader) RemoveType(name string) error {
	if err := t.leaderCheck(); err != nil {
		return err
	}
	if err := t.types.Remove(name); err != nil {
		return err
	}
	return t.journalRecord(&walRecord{Op: opRemoveType, Name: name})
}

// bumpSeqFromID advances the offer ID counter past the sequence number
// embedded in a recovered offer ID, so post-recovery exports never
// collide with recovered ones.
func (t *Trader) bumpSeqFromID(id string) {
	i := strings.LastIndex(id, "/o")
	if i < 0 {
		return
	}
	n, err := strconv.ParseUint(id[i+2:], 10, 64)
	if err != nil {
		return
	}
	t.bumpSeq(n)
}

// bumpSeq raises the offer ID counter to at least n.
func (t *Trader) bumpSeq(n uint64) {
	for {
		cur := t.seq.Load()
		if cur >= n || t.seq.CompareAndSwap(cur, n) {
			return
		}
	}
}
