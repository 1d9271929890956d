package trader

// Durable market state: the trader journals every offer-store and
// type-repo mutation as a logical record into an attached write-ahead
// journal (internal/journal) and can rebuild itself from a snapshot
// plus a record replay. Records and snapshots are the trader IDL's
// Record_t and Snapshot_t, encoded by the binder every RPC uses
// (xcode.AppendEncode/DecodeInto): one codec for the wire, the disk and
// replication, whose ReplRecord_t carries the encoded record verbatim.
//
// One mutation path: every offer-store change is a core.Mutation — the
// decoded form of a walRecord — and ends in core.State.Apply. A live
// operation validates, builds the mutation and commits it; recovery
// (ReplayRecord) and replication (ApplyBatch) decode a record and apply
// it. Live, recovered and replicated state agree by construction.
//
// Ordering discipline: the journal owns it (see internal/journal). An
// offer mutation is one journal.Commit — encode its record, append,
// apply — after validation has passed, so the log carries no rejected
// operations and the store applies records in log order; a follower's
// record is one CommitAt and its snapshot install one Install. The
// trader holds no lock of its own across a journal call. Type
// mutations validate-and-apply inside the repo, then journal; a lease
// purge applies first and is journalled only when it reclaimed
// something. Those two can leave a snapshot ahead of its watermark, so
// every record is an idempotent state setter.

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cosm/internal/journal"
	"cosm/internal/sidl"
	"cosm/internal/trader/core"
	"cosm/internal/typemgr"
	"cosm/internal/xcode"
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

// journalTypes holds the IDL's Record_t and Snapshot_t, which walRecord
// and traderSnapshot bind to. The IDL is parsed on first use, so a
// trader that never journals keeps no second copy of its SID.
var journalTypes = sync.OnceValue(func() struct{ record, snapshot *sidl.Type } {
	sid, err := sidl.Parse(IDL)
	if err != nil {
		panic(fmt.Sprintf("trader: internal IDL: %v", err)) // a constant: only a bug fails it
	}
	return struct{ record, snapshot *sidl.Type }{sid.Type("Record_t"), sid.Type("Snapshot_t")}
})

// walRecord is one logical journal record, Record_t.
type walRecord struct {
	Op      string
	Offers  []OfferRecord // export
	IDs     []string      // withdraw(_all), replace, suspect
	Props   []PropRecord  // replace
	Suspect bool
	At      int64  // purge instant, UnixNano
	SIDL    string // deftype source text
	Name    string // removetype; a vote's candidate
	Epoch   uint64 // epoch (fencing term); a vote's epoch
}

// recordOf renders a mutation in journal form.
func recordOf(m *core.Mutation) *walRecord {
	// Fields an op does not use stay empty and encode as zero.
	r := &walRecord{Op: m.Op, IDs: m.IDs, Suspect: m.Suspect, Props: core.PropsToRecords(make([]PropRecord, 0, len(m.Props)), m.Props)}
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

// commit makes one validated mutation durable and visible: one
// journal.Commit encodes its record (only when a journal is attached),
// appends it and applies the mutation. The replication wait comes after
// the commit: it can take seconds, and a snapshot (or a bootstrapping
// follower's pull, whose ack is what the wait is for) must not block on
// it. The applied offers are returned even when the wait fails: the
// mutation is in the log and in the store by then.
func (t *Trader) commit(m *core.Mutation) ([]*Offer, error) {
	var applied []*Offer
	err := t.record(func() *walRecord { return recordOf(m) },
		func() error { applied = t.core.Apply(m); return nil }, true)
	return applied, err
}

// journalRecord journals a record whose effect is already in place — a
// type definition or removal the repo validated and applied, a purge
// that reclaimed something — and waits for replication like commit.
func (t *Trader) journalRecord(r *walRecord) error {
	return t.record(func() *walRecord { return r }, nil, true)
}

// record commits the record rec builds, then apply, through the
// attached journal (without one, apply alone, and rec is never called);
// with wait set it then blocks, when synchronous replication is
// configured, until enough followers acknowledged the record under the
// epoch it was committed in.
func (t *Trader) record(rec func() *walRecord, apply func() error, wait bool) error {
	epoch := t.Epoch()
	seq, err := t.journal.Commit(func(dst []byte) ([]byte, error) {
		return xcode.AppendEncode(dst, journalTypes().record, rec())
	}, apply)
	if err != nil {
		return fmt.Errorf("trader: journal: %w", err)
	}
	if !wait {
		return nil
	}
	return t.waitReplicated(seq, epoch)
}

// traderSnapshot is the compaction snapshot, Snapshot_t: the full offer
// store, the retained SIDL sources of journalled type definitions, the
// offer ID counter and the fencing epoch.
type traderSnapshot struct {
	Seq    uint64
	Epoch  uint64
	Types  []string
	Offers []OfferRecord
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
			t.event(nil, "journal_failstop", "err", err.Error())
		})
	}
}

// JournalSnapshot serialises the trader's durable state for journal
// compaction: every stored offer (expired ones included — replayed
// purge records re-reclaim them deterministically), the retained SIDL
// sources of type definitions, and the offer ID counter. Output is
// sorted for byte-stable snapshots. The attached journal calls it under
// its write lock (Compact, Cut), so no committed record is missing from
// a snapshot whose watermark covers it.
func (t *Trader) JournalSnapshot() ([]byte, error) {
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
	return xcode.AppendEncode(nil, journalTypes().snapshot, &snap)
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
	if err := xcode.DecodeInto(journalTypes().snapshot, payload, &snap); err != nil {
		return fmt.Errorf("trader: snapshot: %w", err)
	}
	// Journalled types come from SIDL, which names no supertype, so
	// their order does not matter.
	for _, src := range snap.Types {
		if err := t.defineFromSIDL(src); err != nil {
			return fmt.Errorf("trader: snapshot types: %w", err)
		}
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
	if err := xcode.DecodeInto(journalTypes().record, payload, &r); err != nil {
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
