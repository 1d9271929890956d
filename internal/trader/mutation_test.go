package trader

// Tests pinning the single mutation path: live, recovered and
// replicated traders must hold identical state after every step of a
// random mutation history, and the journal records the parent commit
// wrote must keep replaying — and keep being written — byte for byte.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"cosm/internal/journal"
	"cosm/internal/match"
	"cosm/internal/obs"
	"cosm/internal/sidl"
	"cosm/internal/typemgr"
)

// propTypeSIDL renders a minimal SIDL module exporting service type
// name with the given integer attributes. Types derived from SIDL have
// no declared supertype, so P{x,y} conforms to P{x} structurally.
func propTypeSIDL(name string, attrs ...string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "module %s {\n    interface COSM_Operations {\n        long Ping();\n    };\n    module COSM_TraderExport {\n        const string TOD = %q;\n", name, name)
	for _, a := range attrs {
		fmt.Fprintf(&b, "        const long long %s = 0;\n", a)
	}
	b.WriteString("    };\n};\n")
	return b.String()
}

// recoverTrader rebuilds a trader from the journal directory of a
// still-running one — snapshot, then record replay — without starting
// a second journal over it.
func recoverTrader(t *testing.T, id, dir string, clock func() time.Time) *Trader {
	t.Helper()
	tr := New(id, typemgr.NewRepo(), withClock(clock))
	j, err := journal.Open(dir, journal.Options{Fsync: journal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if snap, ok := j.Snapshot(); ok {
		if err := tr.RestoreSnapshot(snap); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Replay(tr.ReplayRecord); err != nil {
		t.Fatal(err)
	}
	return tr
}

// marketState renders everything an importer or operator can observe of
// a trader — the management view, the registered types and a spread of
// graded imports — plus the two things they cannot: the offer ID
// counter and how many offers the store physically holds (an expired
// offer stops matching whether or not a purge reclaimed it).
func marketState(t *testing.T, tr *Trader, reqs []ImportRequest) string {
	t.Helper()
	var b bytes.Buffer
	fmt.Fprintf(&b, "seq=%d stored=%d types=%v\noffers=%s\n",
		tr.seq.Load(), len(tr.core.All()), tr.types.Names(), offersJSON(t, tr.Offers()))
	for _, req := range reqs {
		ms, err := tr.ImportGraded(context.Background(), req)
		if err != nil {
			t.Fatalf("import %+v: %v", req, err)
		}
		fmt.Fprintf(&b, "%s|%s|%s|%v:", req.Type, req.Constraint, req.Policy, req.MinGrade)
		for _, m := range ms {
			rec, err := json.Marshal(m.Record())
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, " (%s %.3f %s)", m.Grade, m.Score, rec)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestMutationPathsAgreeProperty drives a journalled leader through
// seeded random histories over the whole mutation surface. After every
// step a trader recovered from the leader's journal (snapshot + replay)
// and a journalled follower fed by PullBatch→ApplyBatch must be
// indistinguishable from the leader.
func TestMutationPathsAgreeProperty(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	for seed := 0; seed < seeds; seed++ {
		mutationPathsAgree(t, int64(seed))
	}
}

// mutationGen draws random histories over the whole mutation surface:
// types defined and removed, leased, lease-free and batch exports,
// withdrawals of issued and never-issued IDs, replacements, suspicion
// flags, time passing before a lease purge, compactions. It remembers
// what it issued and which IDs a withdrawal named, so a checker knows
// which acknowledged exports must survive.
type mutationGen struct {
	r       *rand.Rand
	minute  time.Duration // the lease unit: a TTL is 0–3 of it
	defined map[string]bool
	ids     []string // every ID ever issued; withdrawn ones stay in the pool
	typeOf  map[string]string
	leased  map[string]bool // issued with a lease
	named   map[string]bool // named by an attempted withdrawal
}

var (
	genAttrs = map[string][]string{"P0": {"x"}, "P1": {"x", "y"}, "P2": {"x", "y", "z"}}
	genNames = []string{"P0", "P1", "P2"}
	// genImports observe the generated market from every angle the
	// matcher has: plain, constrained and ordered, partial, exact.
	genImports = []ImportRequest{
		NewImport("P0"),
		NewImport("P0", Where("x >= 2"), OrderBy("min:x")),
		NewImport("P1", Where("x == 1 && y == 2"), MinGrade(match.GradePartial), OrderBy("score")),
		NewImport("P2", MinGrade(match.GradeExact)),
	}
)

func newMutationGen(seed int64, minute time.Duration) *mutationGen {
	return &mutationGen{r: rand.New(rand.NewSource(seed)), minute: minute,
		defined: map[string]bool{}, typeOf: map[string]string{}, leased: map[string]bool{}, named: map[string]bool{}}
}

func (g *mutationGen) props(typ string) []sidl.Property {
	var kv []any
	for _, a := range genAttrs[typ] {
		kv = append(kv, a, g.r.Intn(4))
	}
	return intProps(kv...)
}

func (g *mutationGen) ttl() time.Duration { return time.Duration(g.r.Intn(4)) * g.minute } // 0 = no lease

func (g *mutationGen) definedType() (string, bool) {
	for _, i := range g.r.Perm(len(genNames)) {
		if g.defined[genNames[i]] {
			return genNames[i], true
		}
	}
	return "", false
}

// someID names an issued ID, or now and then one never issued, which
// must be refused and leave no record.
func (g *mutationGen) someID() string {
	if len(g.ids) == 0 || g.r.Intn(10) == 0 {
		return "M/o9999"
	}
	return g.ids[g.r.Intn(len(g.ids))]
}

func (g *mutationGen) issued(typ string, ttls []time.Duration, fresh ...string) {
	for i, id := range fresh {
		g.ids = append(g.ids, id)
		g.typeOf[id], g.leased[id] = typ, ttls[i] > 0
	}
}

// step applies one random mutation at tr and describes it; "" means the
// draw had nothing to act on. first forces a type definition, advance
// lets time pass before a purge, and compact compacts tr's journal. Only
// the errors of exports, batch withdrawals and compactions are
// returned: every other refusal is part of the mix.
func (g *mutationGen) step(tr *Trader, first bool, advance func(time.Duration), compact func() error) (string, error) {
	switch op := g.r.Intn(12); {
	case first || op == 0: // define a type
		name := genNames[g.r.Intn(len(genNames))]
		if err := tr.DefineTypeSIDL(propTypeSIDL(name, genAttrs[name]...)); err == nil {
			g.defined[name] = true
		}
		return "define " + name, nil
	case op == 1: // remove a type (its offers stay, reachable by literal name)
		name := genNames[g.r.Intn(len(genNames))]
		if err := tr.RemoveType(name); err == nil {
			g.defined[name] = false
		}
		return "remove " + name, nil
	case op <= 4: // export, leased or not
		typ, ok := g.definedType()
		if !ok {
			return "", nil
		}
		props := g.props(typ)
		ttl := g.ttl()
		id, err := tr.ExportLease(typ, hierRef(len(g.ids)+1), props, ttl)
		if err == nil {
			g.issued(typ, []time.Duration{ttl}, id)
		}
		return "export " + typ + " " + id, err
	case op == 5: // batch export
		typ, ok := g.definedType()
		if !ok {
			return "", nil
		}
		items := make([]ExportItem, 1+g.r.Intn(3))
		ttls := make([]time.Duration, len(items))
		for i := range items {
			items[i] = ExportItem{Type: typ, Ref: hierRef(len(g.ids) + 1 + i), Props: g.props(typ), TTL: g.ttl()}
			ttls[i] = items[i].TTL
		}
		fresh, err := tr.ExportAll(items)
		if err == nil {
			g.issued(typ, ttls, fresh...)
		}
		return fmt.Sprintf("export-all %s %v", typ, fresh), err
	case op == 6:
		id := g.someID()
		g.named[id] = true
		_ = tr.Withdraw(id) // unknown and already-withdrawn IDs are part of the mix
		return "withdraw " + id, nil
	case op == 7:
		batch := []string{g.someID(), g.someID(), g.someID()}
		for _, id := range batch {
			g.named[id] = true
		}
		_, err := tr.WithdrawAll(batch)
		return fmt.Sprintf("withdraw-all %v", batch), err
	case op == 8:
		id := g.someID()
		if typ, ok := g.typeOf[id]; ok && g.defined[typ] {
			_ = tr.Replace(id, g.props(typ))
		} else {
			_ = tr.Replace(id, nil)
		}
		return "replace " + id, nil
	case op == 9:
		id := g.someID()
		_ = tr.MarkSuspect(id, g.r.Intn(2) == 0)
		return "suspect " + id, nil
	case op == 10: // time passes, leases run out, the sweeper purges
		d := time.Duration(1+g.r.Intn(120)) * g.minute / 60
		advance(d)
		tr.PurgeExpired()
		return fmt.Sprintf("purge after %v", d), nil
	default: // compaction: recovery now starts from a snapshot
		return "compact", compact()
	}
}

func mutationPathsAgree(t *testing.T, seed int64) {
	now := time.Unix(1_000_000, 0)
	clock := func() time.Time { return now }
	opts := journal.Options{Fsync: journal.FsyncNever, SegmentSize: 2048}

	leaderDir, followerDir := t.TempDir(), t.TempDir()
	leaderReg, followerReg := obs.NewRegistry(), obs.NewRegistry()
	leader, lj := newDurableTrader(t, "M", leaderDir, opts, withClock(clock), WithMetrics(leaderReg))
	defer lj.Close()
	follower, fj := newDurableTrader(t, "M", followerDir, opts, withClock(clock), WithMetrics(followerReg))
	defer fj.Close()
	follower.SetFollower("cosm://leader")

	g := newMutationGen(seed, time.Minute)
	reqs := genImports
	const steps = 30
	for step := 0; step < steps; step++ {
		desc, err := g.step(leader, step == 0, func(d time.Duration) { now = now.Add(d) }, lj.Compact)
		if err != nil {
			t.Fatalf("seed %d step %d %s: %v", seed, step, desc, err)
		}
		if desc == "" {
			continue
		}

		syncUp(t, leader, follower, "f")
		want := marketState(t, leader, reqs)
		if got := marketState(t, recoverTrader(t, "M", leaderDir, clock), reqs); got != want {
			t.Fatalf("seed %d step %d (%s): recovered state differs\n got %s\nwant %s", seed, step, desc, got, want)
		}
		if got := marketState(t, follower, reqs); got != want {
			t.Fatalf("seed %d step %d (%s): replicated state differs\n got %s\nwant %s", seed, step, desc, got, want)
		}
	}

	// The follower's own journal must recover to the same state too:
	// ApplyBatch is WAL-first at the leader's sequence numbers.
	want := marketState(t, leader, reqs)
	if got := marketState(t, recoverTrader(t, "M", followerDir, clock), reqs); got != want {
		t.Fatalf("seed %d: follower journal recovers to a different state\n got %s\nwant %s", seed, got, want)
	}

	// Exports and withdrawals count market activity, i.e. live calls:
	// applying the same mutations from the replication stream counts
	// nothing.
	exported := func(reg *obs.Registry) uint64 { return reg.Counter("cosm_trader_exports_total", "").Value() }
	withdrawn := func(reg *obs.Registry) uint64 { return reg.Counter("cosm_trader_withdrawals_total", "").Value() }
	if got := exported(leaderReg); got != uint64(len(g.ids)) {
		t.Fatalf("seed %d: leader counted %d exports, issued %d", seed, got, len(g.ids))
	}
	if e, w := exported(followerReg), withdrawn(followerReg); e != 0 || w != 0 {
		t.Fatalf("seed %d: follower counted replicated mutations as its own: %d exports, %d withdrawals", seed, e, w)
	}
}

// parentJournal is the on-disk format, pinned: one record per journal
// op, copied byte for byte from a journal written by the commit before
// the mutation paths were collapsed (7c34761), each beside the live
// call that produced it there — trader "J" over the car rental type, on
// a clock that starts at Unix second 1 000 000.
var parentJournal = []struct {
	live   func(tr *Trader, clock *time.Time) error
	record string
}{
	{func(tr *Trader, _ *time.Time) error { return tr.DefineTypeSIDL(propTypeSIDL("P1", "x", "y")) },
		`{"op":"deftype","sidl":"module P1 {\n    interface COSM_Operations {\n        long Ping();\n    };\n    module COSM_TraderExport {\n        const string TOD = \"P1\";\n        const long long x = 0;\n        const long long y = 0;\n    };\n};\n"}`},
	{func(tr *Trader, _ *time.Time) error {
		_, err := tr.Export("CarRentalService", carRef(1), carProps("FIAT_Uno", 50, "USD"))
		return err
	},
		`{"op":"export","offers":[{"id":"J/o1","type":"CarRentalService","ref":"cosm://tcp:10.0.0.1:7000/CarRentalService","props":[{"name":"AverageMilage","kind":"int","text":"38000"},{"name":"CarModel","kind":"enum","text":"FIAT_Uno"},{"name":"ChargeCurrency","kind":"enum","text":"USD"},{"name":"ChargePerDay","kind":"float","text":"50"}]}]}`},
	{func(tr *Trader, _ *time.Time) error {
		_, err := tr.ExportLease("CarRentalService", carRef(2), carProps("AUDI", 120.5, "DEM"), time.Minute)
		return err
	},
		`{"op":"export","offers":[{"id":"J/o2","type":"CarRentalService","ref":"cosm://tcp:10.0.0.2:7000/CarRentalService","props":[{"name":"AverageMilage","kind":"int","text":"38000"},{"name":"CarModel","kind":"enum","text":"AUDI"},{"name":"ChargeCurrency","kind":"enum","text":"DEM"},{"name":"ChargePerDay","kind":"float","text":"120.5"}],"expires":1000060000000000}]}`},
	{func(tr *Trader, _ *time.Time) error {
		_, err := tr.ExportAll([]ExportItem{
			{Type: "CarRentalService", Ref: carRef(3), Props: carProps("VW_Golf", 66, "USD")},
			{Type: "CarRentalService", Ref: carRef(4), Props: carProps("VW_Golf", 77, "GBP"), TTL: time.Hour},
		})
		return err
	},
		`{"op":"export","offers":[{"id":"J/o3","type":"CarRentalService","ref":"cosm://tcp:10.0.0.3:7000/CarRentalService","props":[{"name":"AverageMilage","kind":"int","text":"38000"},{"name":"CarModel","kind":"enum","text":"VW_Golf"},{"name":"ChargeCurrency","kind":"enum","text":"USD"},{"name":"ChargePerDay","kind":"float","text":"66"}]},{"id":"J/o4","type":"CarRentalService","ref":"cosm://tcp:10.0.0.4:7000/CarRentalService","props":[{"name":"AverageMilage","kind":"int","text":"38000"},{"name":"CarModel","kind":"enum","text":"VW_Golf"},{"name":"ChargeCurrency","kind":"enum","text":"GBP"},{"name":"ChargePerDay","kind":"float","text":"77"}],"expires":1003600000000000}]}`},
	{func(tr *Trader, _ *time.Time) error { return tr.Replace("J/o1", carProps("AUDI", 200, "GBP")) },
		`{"op":"replace","ids":["J/o1"],"props":[{"name":"AverageMilage","kind":"int","text":"38000"},{"name":"CarModel","kind":"enum","text":"AUDI"},{"name":"ChargeCurrency","kind":"enum","text":"GBP"},{"name":"ChargePerDay","kind":"float","text":"200"}]}`},
	{func(tr *Trader, _ *time.Time) error { return tr.MarkSuspect("J/o1", true) },
		`{"op":"suspect","ids":["J/o1"],"suspect":true}`},
	{func(tr *Trader, _ *time.Time) error { return tr.Withdraw("J/o3") },
		`{"op":"withdraw","ids":["J/o3"]}`},
	{func(tr *Trader, clock *time.Time) error {
		*clock = clock.Add(2 * time.Minute) // J/o2's one-minute lease runs out
		if n := tr.PurgeExpired(); n != 1 {
			return fmt.Errorf("PurgeExpired = %d, want 1", n)
		}
		return nil
	},
		`{"op":"purge","at":1000120000000000}`},
	{func(tr *Trader, _ *time.Time) error {
		_, err := tr.WithdrawAll([]string{"J/o4", "J/o999"})
		return err
	},
		`{"op":"withdraw_all","ids":["J/o4","J/o999"]}`},
	{func(tr *Trader, _ *time.Time) error { return tr.Promote(3) },
		`{"op":"epoch","epoch":3}`},
	{func(tr *Trader, _ *time.Time) error { return tr.RemoveType("P1") },
		`{"op":"removetype","name":"P1"}`},
}

// TestJournalFormatPinned holds the journal format still in both
// directions: the live calls must append exactly the parent commit's
// bytes, and a trader replaying the parent's literal records must land
// in the state the live trader is in.
func TestJournalFormatPinned(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	clock := func() time.Time { return now }
	live := New("J", newCarRepo(t), withClock(clock))
	j, err := journal.Open(t.TempDir(), journal.Options{Fsync: journal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Start(live.JournalSnapshot); err != nil {
		t.Fatal(err)
	}
	live.SetJournal(j)
	replayed := New("J", newCarRepo(t), withClock(clock))

	reqs := []ImportRequest{NewImport("CarRentalService", OrderBy("min:ChargePerDay"))}
	for i, row := range parentJournal {
		seq := uint64(i + 1)
		if err := row.live(live, &now); err != nil {
			t.Fatalf("record %d: live call: %v", seq, err)
		}
		recs, err := j.ReadFrom(seq-1, 1)
		if err != nil || len(recs) != 1 {
			t.Fatalf("record %d: read back %d records, %v", seq, len(recs), err)
		}
		if got := string(recs[0].Payload); got != row.record {
			t.Fatalf("record %d: journal format changed\n got %s\nwant %s", seq, got, row.record)
		}
		if err := replayed.ReplayRecord(seq, []byte(row.record)); err != nil {
			t.Fatalf("record %d: replay: %v", seq, err)
		}
		want, got := marketState(t, live, reqs), marketState(t, replayed, reqs)
		if got != want {
			t.Fatalf("record %d: replayed state differs\n got %s\nwant %s", seq, got, want)
		}
		if live.Epoch() != replayed.Epoch() {
			t.Fatalf("record %d: epoch %d replayed as %d", seq, live.Epoch(), replayed.Epoch())
		}
	}
	if n := j.Stats().LastSeq; n != uint64(len(parentJournal)) {
		t.Fatalf("journal holds %d records, want one per row (%d)", n, len(parentJournal))
	}
	if live.Epoch() != 3 || live.OfferCount() != 1 {
		t.Fatalf("end state: epoch %d, %d offers; want epoch 3 and J/o1 alone", live.Epoch(), live.OfferCount())
	}
}

// FuzzReplayRecord: journal payloads come off a disk or from a
// replication peer, so replay must refuse damage with an error, never a
// panic. Seeds are the pinned records above plus, under
// testdata/fuzz/FuzzReplayRecord, the shapes they do not cover: a vote
// pledge, an unknown op, offers that do not decode, truncated JSON.
func FuzzReplayRecord(f *testing.F) {
	for _, row := range parentJournal {
		f.Add([]byte(row.record))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		tr := New("J", typemgr.NewRepo(), WithConstraintCacheSize(0), WithImportCacheTTL(0))
		for seq := uint64(1); seq <= 2; seq++ { // twice: records are idempotent
			_ = tr.ReplayRecord(seq, payload)
		}
		tr.OfferCount() // whatever was applied, the store still walks
	})
}
