package browser

// Durable directory state: like the trader (see trader/durable.go) the
// browser journals every registration and withdrawal as a logical
// record and rebuilds from snapshot + replay on boot. Records and
// snapshots are the browser IDL's DirRecord_t and DirSnapshot_t,
// encoded by the binder every RPC uses. SIDs persist as canonical SIDL
// text — the communicable form of section 4.1 — so a recovered entry is
// the re-parsed canonical description (comments in the provider's
// original source are not retained). The journal orders the writes
// (see internal/journal): a registration or withdrawal is one
// journal.Commit — encode, append, apply — and JournalSnapshot runs
// under the same write lock, so a snapshot never misses a record its
// watermark covers and the directory applies records in log order. The
// directory holds no lock of its own across a journal call.

import (
	"fmt"
	"sort"
	"sync"

	"cosm/internal/journal"
	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/xcode"
)

const (
	opRegister = "register"
	opWithdraw = "withdraw"
)

// journalTypes holds the IDL's DirRecord_t and DirSnapshot_t, which
// dirRecord and dirSnapshot bind to; the IDL is parsed on first use.
var journalTypes = sync.OnceValue(func() struct{ record, snapshot *sidl.Type } {
	sid, err := sidl.Parse(IDL)
	if err != nil {
		panic(fmt.Sprintf("browser: internal IDL: %v", err)) // a constant: only a bug fails it
	}
	return struct{ record, snapshot *sidl.Type }{sid.Type("DirRecord_t"), sid.Type("DirSnapshot_t")}
})

// dirRecord is one logical journal record of the directory, DirRecord_t:
// op register (name, the SID's canonical SIDL text, the reference as
// text) or withdraw (name).
type dirRecord struct {
	Op   string
	Name string
	SIDL string
	Ref  string
}

// dirSnapshot is the compaction snapshot, DirSnapshot_t: every
// registration as a register record without its op, sorted by name for
// byte-stable output.
type dirSnapshot struct {
	Entries []dirRecord
}

// SetJournal attaches a started journal; call after recovery and before
// serving.
func (d *Directory) SetJournal(j *journal.Journal) { d.journal = j }

// appendRecord is a journal.Commit encode step: r, appended to dst.
func appendRecord(dst []byte, r *dirRecord) ([]byte, error) {
	return xcode.AppendEncode(dst, journalTypes().record, r)
}

// JournalSnapshot serialises the directory for journal compaction; the
// attached journal calls it under its write lock.
func (d *Directory) JournalSnapshot() ([]byte, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var snap dirSnapshot
	for name, e := range d.entries {
		text, err := e.entry.SID.MarshalText()
		if err != nil {
			return nil, fmt.Errorf("browser: snapshot %q: %w", name, err)
		}
		snap.Entries = append(snap.Entries, dirRecord{Name: name, SIDL: string(text), Ref: e.entry.Ref.String()})
	}
	sort.Slice(snap.Entries, func(i, j int) bool { return snap.Entries[i].Name < snap.Entries[j].Name })
	return xcode.AppendEncode(nil, journalTypes().snapshot, &snap)
}

// RestoreSnapshot loads a compaction snapshot into an empty directory.
// Call before Replay.
func (d *Directory) RestoreSnapshot(payload []byte) error {
	var snap dirSnapshot
	if err := xcode.DecodeInto(journalTypes().snapshot, payload, &snap); err != nil {
		return fmt.Errorf("browser: snapshot: %w", err)
	}
	for _, rec := range snap.Entries {
		if err := d.applyRegister(rec.SIDL, rec.Ref); err != nil {
			return err
		}
	}
	return nil
}

// ReplayRecord applies one journal record during recovery; pass it to
// journal.Replay. Records are idempotent (register is an upsert,
// withdrawal of an absent name is a no-op), so replaying over a
// snapshot newer than its watermark is harmless.
func (d *Directory) ReplayRecord(seq uint64, payload []byte) error {
	var rec dirRecord
	if err := xcode.DecodeInto(journalTypes().record, payload, &rec); err != nil {
		return fmt.Errorf("browser: journal record %d: %w", seq, err)
	}
	switch rec.Op {
	case opRegister:
		if err := d.applyRegister(rec.SIDL, rec.Ref); err != nil {
			return fmt.Errorf("browser: journal record %d: %w", seq, err)
		}
	case opWithdraw:
		d.mu.Lock()
		delete(d.entries, rec.Name)
		d.mu.Unlock()
	default:
		return fmt.Errorf("browser: journal record %d: unknown op %q", seq, rec.Op)
	}
	return nil
}

// applyRegister parses a persisted registration and upserts it without
// journalling (the recovery path).
func (d *Directory) applyRegister(sidlText, refText string) error {
	sid, err := sidl.Parse(sidlText)
	if err != nil {
		return err
	}
	r, err := ref.Parse(refText)
	if err != nil {
		return err
	}
	d.put(sid, r)
	return nil
}

// put upserts a registration: the effect of a register record.
func (d *Directory) put(sid *sidl.SID, r ref.ServiceRef) {
	d.mu.Lock()
	d.entries[sid.ServiceName] = &dirEntry{
		entry:    Entry{Name: sid.ServiceName, SID: sid, Ref: r},
		keywords: sid.Keywords(),
	}
	d.mu.Unlock()
}
