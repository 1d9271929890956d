package trader

import (
	"fmt"
	"time"

	"cosm/internal/cosm"
	"cosm/internal/journal"
	"cosm/internal/match"
	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/trader/core"
	"cosm/internal/wire"
)

// ServiceName is the well-known hosted name of a trader service.
const ServiceName = "cosm.trader"

// IDL is the trader's own service description. Like the browser and the
// name server, the trader is an ordinary COSM service: its operations
// are invoked dynamically, and a generic client can browse it.
const IDL = `
// ODP trading function: typed service offers, constrained imports,
// and a management interface for service types.
module CosmTrader {
    struct Prop_t {
        string name;
        string kind;
        string text;
    };
    typedef sequence<Prop_t> Props_t;
    struct Offer_t {
        string id;
        string serviceType;
        Object target;
        Props_t props;
        // Lease expiry as Unix seconds; 0 means the offer never expires.
        long long expiresUnix;
        // Liveness: true when the trader's sweeper suspects the provider.
        boolean suspect;
        // Semantic match grade ("exact", "subtype", "partial-attribute")
        // and score; empty/zero outside graded import results.
        string grade;
        double score;
    };
    typedef sequence<Offer_t> Offers_t;
    typedef sequence<string> Names_t;
    struct ExportItem_t {
        string serviceType;
        Object target;
        Props_t props;
        // Lease in whole seconds; 0 means no expiry.
        long long ttlSeconds;
    };
    typedef sequence<ExportItem_t> ExportItems_t;
    struct ImportReq_t {
        string serviceType;
        string constraint;
        string policy;
        long max;
        long hopLimit;
        // Scatter knobs: peers consulted per hop (0 = all) and the
        // hedge delay in milliseconds (0 = no hedging).
        long maxPeers;
        long long hedgeMs;
        // Semantic grade floor ("exact", "subtype", "partial-attribute";
        // empty = the trader's default, subtype conformance).
        string minGrade;
        Names_t visited;
    };
    // One federation link's observable state (see LinkList).
    struct LinkInfo_t {
        string name;
        string peerId;
        // Circuit-breaker state: closed, open or half-open.
        string state;
        // Last successful interaction as Unix milliseconds; 0 = never.
        long long lastSeenUnixMs;
        // Farthest advertised hop distance through this link, plus one;
        // 0 before any summary arrived.
        long hops;
        long summaryTypes;
        long long summaryGen;
        // Age of the last summary in milliseconds; -1 = none yet.
        long long summaryAgeMs;
    };
    typedef sequence<LinkInfo_t> LinkInfos_t;
    // One advertised service type of an offer summary: reachable offer
    // count and hop distance (0 = at the advertising trader itself).
    struct SummaryEntry_t {
        string serviceType;
        long count;
        long hops;
    };
    typedef sequence<SummaryEntry_t> SummaryEntries_t;
    struct Summary_t {
        string from;
        long long gen;
        SummaryEntries_t entries;
    };
    // One replicated journal record: the leader's sequence number and
    // the logical JSON payload, verbatim.
    struct ReplRecord_t {
        long long seq;
        string payload;
    };
    typedef sequence<ReplRecord_t> ReplRecords_t;
    struct ReplBatch_t {
        long long epoch;
        long long lastSeq;
        // When the follower is behind the compaction watermark the
        // batch carries a full state snapshot instead of records.
        long long snapshotSeq;
        string snapshot;
        ReplRecords_t records;
    };
    struct ReplStatus_t {
        string role;
        long long epoch;
        long long lastSeq;
        long long applied;
        string leader;
    };
    // One member's reply to an election vote request: whether the vote
    // was granted, plus the responder's own role/epoch/position/leader
    // hint so candidates learn about live leaders and newer epochs.
    struct Vote_t {
        boolean granted;
        string role;
        long long epoch;
        long long applied;
        string leader;
        long long voteEpoch;
    };
    interface COSM_Operations {
        // Register an offer of a known service type.
        string Export(in string serviceType, in Object target, in Props_t props);
        // Register an offer with a lease of ttlSeconds (0 = no expiry).
        string ExportLease(in string serviceType, in Object target, in Props_t props, in long long ttlSeconds);
        // Register an offer from SIDL text with a COSM_TraderExport module.
        string ExportSID(in string sidlText, in Object target);
        // Register a batch of offers in one round trip. The batch is
        // validated up front and registers completely or not at all;
        // the returned IDs parallel the items.
        Names_t ExportAll(in ExportItems_t items);
        // Remove an offer.
        void Withdraw(in string offerId);
        // Remove a batch of offers; unknown IDs are skipped and the
        // number actually withdrawn is returned (idempotent).
        long WithdrawAll(in Names_t offerIds);
        // Replace an offer's properties.
        void Replace(in string offerId, in Props_t props);
        // Match offers (federation-aware).
        Offers_t Import(in ImportReq_t req);
        // Management interface: define a service type from SIDL text
        // carrying a trader export (the maturation path of section 4.1).
        void DefineTypeFromSID(in string sidlText);
        // Management interface: list and remove service types.
        Names_t TypeNames();
        void RemoveType(in string name);
        // Replication: stream journal records after afterSeq to the
        // named follower, long-polling up to waitMs for new ones. A
        // follower behind the compaction watermark gets a snapshot.
        ReplBatch_t ReplPull(in string followerId, in long long epoch, in long long afterSeq, in long max, in long long waitMs);
        // Failover: take leadership at a strictly greater fencing epoch.
        void Promote(in long long epoch);
        // Replication role and position of this trader.
        ReplStatus_t ReplStatus();
        // Election: candidateId asks to lead at newEpoch, carrying where
        // its log ends: the applied position and the epoch of the leader
        // that tail came from. At most one vote is granted per epoch, and
        // only to candidates whose log is at least as advanced as the
        // voter's: the later tail epoch, then the longer tail.
        Vote_t RequestVote(in string candidateId, in long long newEpoch, in long long applied, in long long tailEpoch);
        // Link management: register a named federation link to the
        // trader behind peer, remove one, list them with their state.
        void LinkAdd(in string name, in Object peer);
        void LinkRemove(in string name);
        LinkInfos_t LinkList();
        // Offer-summary gossip: store the caller's summary and reply
        // with this trader's own (a push doubles as a pull).
        Summary_t SummaryExchange(in Summary_t summary);
    };
};
`

// Wire forms. What the IDL above declares binds to Go types through
// xcode.Encode and Decode, with the types taken from the operation
// signatures (cosm.Call.Args/Return here, cosm.Conn.Call in client.go).
// Vote, ReplStatus, OfferSummary and core.PropRecord have the shape of
// their SIDL structs and bind as they are. The five kinds of value below
// do not — instants and durations travel as integers, grades and
// payloads as strings, and visited is unexported — so each has a
// wire-shaped struct and a conversion either way. The members tagged
// optional arrived after a struct's first revision: an older peer's SID
// lacks them and they decode as zero (DESIGN.md §12).

// offerWire is Offer_t: an offer, or a graded match.
type offerWire struct {
	ID          string
	ServiceType string
	Target      ref.ServiceRef
	Props       []PropRecord
	ExpiresUnix int64   `sidl:",optional"`
	Suspect     bool    `sidl:",optional"`
	Grade       string  `sidl:",optional"`
	Score       float64 `sidl:",optional"`
}

func wireMatch(m Match) offerWire {
	w := offerWire{ID: m.ID, ServiceType: m.Type, Target: m.Ref, Props: core.PropsToRecords(m.Props),
		Suspect: m.Suspect, Grade: m.Grade.String(), Score: m.Score}
	if !m.Expires.IsZero() {
		w.ExpiresUnix = m.Expires.Unix()
	}
	return w
}

// match reverses wireMatch. An offer from a trader that predates
// grading carries no grade and comes out GradeNone; the federation path
// re-grades those locally.
func (w *offerWire) match() (Match, error) {
	props, err := core.PropsFromRecords(w.Props)
	if err != nil {
		return Match{}, err
	}
	grade, err := match.ParseGrade(w.Grade)
	if err != nil {
		return Match{}, err
	}
	o := &Offer{ID: w.ID, Type: w.ServiceType, Ref: w.Target, Props: props, Suspect: w.Suspect}
	if w.ExpiresUnix != 0 {
		o.Expires = time.Unix(w.ExpiresUnix, 0)
	}
	return Match{Offer: o, Grade: grade, Score: w.Score}, nil
}

// wireProps renders an argument's property list as Props_t, in the
// caller's order (stored offers list theirs by name, see wireMatch).
func wireProps(props []sidl.Property) []PropRecord {
	recs := make([]PropRecord, len(props))
	for i, p := range props {
		kind, text := core.EncodeLit(p.Value)
		recs[i] = PropRecord{Name: p.Name, Kind: kind, Text: text}
	}
	return recs
}

func propsFromWire(recs []PropRecord) ([]sidl.Property, error) {
	props := make([]sidl.Property, len(recs))
	for i, r := range recs {
		lit, err := core.DecodeLit(r.Kind, r.Text)
		if err != nil {
			return nil, err
		}
		props[i] = sidl.Property{Name: r.Name, Value: lit}
	}
	return props, nil
}

// exportItemWire is ExportItem_t.
type exportItemWire struct {
	ServiceType string
	Target      ref.ServiceRef
	Props       []PropRecord
	TTLSeconds  int64
}

func wireExportItems(items []ExportItem) []exportItemWire {
	ws := make([]exportItemWire, len(items))
	for i, it := range items {
		ws[i] = exportItemWire{ServiceType: it.Type, Target: it.Ref, Props: wireProps(it.Props), TTLSeconds: int64(it.TTL / time.Second)}
	}
	return ws
}

func exportItemsFromWire(ws []exportItemWire) ([]ExportItem, error) {
	items := make([]ExportItem, len(ws))
	for i, w := range ws {
		props, err := propsFromWire(w.Props)
		if err != nil {
			return nil, err
		}
		items[i] = ExportItem{Type: w.ServiceType, Ref: w.Target, Props: props, TTL: time.Duration(w.TTLSeconds) * time.Second}
	}
	return items, nil
}

// importReqWire is ImportReq_t.
type importReqWire struct {
	ServiceType string
	Constraint  string
	Policy      string
	Max         int
	HopLimit    int
	MaxPeers    int    `sidl:",optional"`
	HedgeMs     int64  `sidl:",optional"`
	MinGrade    string `sidl:",optional"`
	Visited     []string
}

func wireImportReq(req ImportRequest) importReqWire {
	return importReqWire{ServiceType: req.Type, Constraint: req.Constraint, Policy: req.Policy,
		Max: req.Max, HopLimit: req.HopLimit, MaxPeers: req.MaxPeers, HedgeMs: req.Hedge.Milliseconds(),
		MinGrade: req.MinGrade.String(), Visited: req.visited}
}

func (w *importReqWire) request() ImportRequest {
	req := ImportRequest{Type: w.ServiceType, Constraint: w.Constraint, Policy: w.Policy,
		Max: w.Max, HopLimit: w.HopLimit, MaxPeers: w.MaxPeers, visited: w.Visited}
	if w.HedgeMs > 0 {
		req.Hedge = time.Duration(w.HedgeMs) * time.Millisecond
	}
	// An unknown grade floor falls back to the default (subtype
	// conformance), like an absent one.
	if g, err := match.ParseGrade(w.MinGrade); err == nil {
		req.MinGrade = g
	}
	return req
}

// linkInfoWire is LinkInfo_t.
type linkInfoWire struct {
	Name           string
	PeerID         string
	State          wire.BreakerState
	LastSeenUnixMs int64  `sidl:",optional"`
	Hops           int    `sidl:",optional"`
	SummaryTypes   int    `sidl:",optional"`
	SummaryGen     uint64 `sidl:",optional"`
	SummaryAgeMs   int64  `sidl:",optional"`
}

func wireLinkInfos(links []LinkInfo) []linkInfoWire {
	ws := make([]linkInfoWire, len(links))
	for i, li := range links {
		w := linkInfoWire{Name: li.Name, PeerID: li.PeerID, State: li.State, Hops: li.Hops,
			SummaryTypes: li.SummaryTypes, SummaryGen: li.SummaryGen, SummaryAgeMs: -1}
		if !li.LastSeen.IsZero() {
			w.LastSeenUnixMs = li.LastSeen.UnixMilli()
		}
		if li.SummaryAge >= 0 {
			w.SummaryAgeMs = li.SummaryAge.Milliseconds()
		}
		ws[i] = w
	}
	return ws
}

func linkInfosFromWire(ws []linkInfoWire) []LinkInfo {
	links := make([]LinkInfo, len(ws))
	for i, w := range ws {
		li := LinkInfo{Name: w.Name, PeerID: w.PeerID, State: w.State, Hops: w.Hops,
			SummaryTypes: w.SummaryTypes, SummaryGen: w.SummaryGen, SummaryAge: -1}
		if w.LastSeenUnixMs != 0 {
			li.LastSeen = time.UnixMilli(w.LastSeenUnixMs)
		}
		// hops is 0 exactly until the first summary arrives, so a peer
		// whose LinkInfo_t lacks the summary members reads "never" too.
		if w.Hops > 0 && w.SummaryAgeMs >= 0 {
			li.SummaryAge = time.Duration(w.SummaryAgeMs) * time.Millisecond
		}
		links[i] = li
	}
	return links
}

// replBatchWire is ReplBatch_t: record payloads and snapshots are
// logical JSON, carried verbatim in string members.
type replBatchWire struct {
	Epoch       uint64
	LastSeq     uint64
	SnapshotSeq uint64
	Snapshot    string
	Records     []replRecordWire
}

type replRecordWire struct {
	Seq     uint64
	Payload string
}

func wireReplBatch(b *ReplBatch) replBatchWire {
	w := replBatchWire{Epoch: b.Epoch, LastSeq: b.LastSeq, SnapshotSeq: b.SnapshotSeq,
		Snapshot: string(b.Snapshot), Records: make([]replRecordWire, len(b.Records))}
	for i, r := range b.Records {
		w.Records[i] = replRecordWire{Seq: r.Seq, Payload: string(r.Payload)}
	}
	return w
}

func (w *replBatchWire) batch() *ReplBatch {
	b := &ReplBatch{Epoch: w.Epoch, LastSeq: w.LastSeq, SnapshotSeq: w.SnapshotSeq}
	if w.Snapshot != "" {
		b.Snapshot = []byte(w.Snapshot)
	}
	for _, r := range w.Records {
		b.Records = append(b.Records, journal.Record{Seq: r.Seq, Payload: []byte(r.Payload)})
	}
	return b
}

// NewService wraps a Trader as a hosted COSM service.
func NewService(t *Trader) (*cosm.Service, error) {
	sid, err := sidl.Parse(IDL)
	if err != nil {
		return nil, fmt.Errorf("trader: internal IDL: %w", err)
	}
	svc, err := cosm.NewService(sid)
	if err != nil {
		return nil, err
	}

	// Export is ExportLease without its trailing argument.
	export := func(call *cosm.Call) error {
		var serviceType string
		var target ref.ServiceRef
		var recs []PropRecord
		var ttlSeconds int64
		dst := []any{&serviceType, &target, &recs, &ttlSeconds}
		if err := call.Args(dst[:len(call.In)]...); err != nil {
			return err
		}
		props, err := propsFromWire(recs)
		if err != nil {
			return err
		}
		id, err := t.ExportLease(serviceType, target, props, time.Duration(ttlSeconds)*time.Second)
		if err != nil {
			return err
		}
		return call.Return(id)
	}
	svc.MustHandle("Export", export)
	svc.MustHandle("ExportLease", export)
	svc.MustHandle("ExportSID", func(call *cosm.Call) error {
		var text string
		var target ref.ServiceRef
		if err := call.Args(&text, &target); err != nil {
			return err
		}
		sid, err := sidl.Parse(text)
		if err != nil {
			return err
		}
		id, err := t.ExportSID(sid, target)
		if err != nil {
			return err
		}
		return call.Return(id)
	})
	svc.MustHandle("ExportAll", func(call *cosm.Call) error {
		var ws []exportItemWire
		if err := call.Args(&ws); err != nil {
			return err
		}
		items, err := exportItemsFromWire(ws)
		if err != nil {
			return err
		}
		ids, err := t.ExportAll(items)
		if err != nil {
			return err
		}
		return call.Return(ids)
	})
	svc.MustHandle("Withdraw", func(call *cosm.Call) error {
		var id string
		if err := call.Args(&id); err != nil {
			return err
		}
		return t.Withdraw(id)
	})
	svc.MustHandle("WithdrawAll", func(call *cosm.Call) error {
		var ids []string
		if err := call.Args(&ids); err != nil {
			return err
		}
		n, err := t.WithdrawAll(ids)
		if err != nil {
			// A sync-replication timeout fails the call after the
			// withdrawal was applied; the count crosses the wire in the
			// error's detail, as the leader hint does.
			return fmt.Errorf("%w (withdrew %d)", err, n)
		}
		return call.Return(n)
	})
	svc.MustHandle("Replace", func(call *cosm.Call) error {
		var id string
		var recs []PropRecord
		if err := call.Args(&id, &recs); err != nil {
			return err
		}
		props, err := propsFromWire(recs)
		if err != nil {
			return err
		}
		return t.Replace(id, props)
	})
	svc.MustHandle("Import", func(call *cosm.Call) error {
		var req importReqWire
		if err := call.Args(&req); err != nil {
			return err
		}
		ms, err := t.ImportGraded(call.Ctx, req.request())
		if err != nil {
			return err
		}
		ws := make([]offerWire, len(ms))
		for i, m := range ms {
			ws[i] = wireMatch(m)
		}
		return call.Return(ws)
	})
	svc.MustHandle("DefineTypeFromSID", func(call *cosm.Call) error {
		var text string
		if err := call.Args(&text); err != nil {
			return err
		}
		return t.DefineTypeSIDL(text)
	})
	svc.MustHandle("TypeNames", func(call *cosm.Call) error {
		return call.Return(t.Types().Names())
	})
	svc.MustHandle("RemoveType", func(call *cosm.Call) error {
		var name string
		if err := call.Args(&name); err != nil {
			return err
		}
		return t.RemoveType(name)
	})
	svc.MustHandle("ReplPull", func(call *cosm.Call) error {
		var followerID string
		var epoch, afterSeq uint64
		var max int
		var waitMs int64
		if err := call.Args(&followerID, &epoch, &afterSeq, &max, &waitMs); err != nil {
			return err
		}
		b, err := t.PullBatch(call.Ctx, followerID, epoch, afterSeq, max, time.Duration(waitMs)*time.Millisecond)
		if err != nil {
			return err
		}
		return call.Return(wireReplBatch(b))
	})
	svc.MustHandle("Promote", func(call *cosm.Call) error {
		var epoch uint64
		if err := call.Args(&epoch); err != nil {
			return err
		}
		return t.Promote(epoch)
	})
	svc.MustHandle("ReplStatus", func(call *cosm.Call) error {
		return call.Return(t.Status())
	})
	svc.MustHandle("RequestVote", func(call *cosm.Call) error {
		var candidateID string
		var newEpoch, applied, tailEpoch uint64
		if err := call.Args(&candidateID, &newEpoch, &applied, &tailEpoch); err != nil {
			return err
		}
		v, err := t.RequestVote(call.Ctx, candidateID, newEpoch, applied, tailEpoch)
		if err != nil {
			return err
		}
		return call.Return(v)
	})
	svc.MustHandle("LinkAdd", func(call *cosm.Call) error {
		var name string
		var peerRef ref.ServiceRef
		if err := call.Args(&name, &peerRef); err != nil {
			return err
		}
		if t.linkDialer == nil {
			return ErrNoLinkDialer
		}
		peer, err := t.linkDialer(call.Ctx, peerRef)
		if err != nil {
			return err
		}
		return t.AddLink(name, peer)
	})
	svc.MustHandle("LinkRemove", func(call *cosm.Call) error {
		var name string
		if err := call.Args(&name); err != nil {
			return err
		}
		return t.RemoveLink(name)
	})
	svc.MustHandle("LinkList", func(call *cosm.Call) error {
		return call.Return(wireLinkInfos(t.Links()))
	})
	svc.MustHandle("SummaryExchange", func(call *cosm.Call) error {
		var theirs OfferSummary
		if err := call.Args(&theirs); err != nil {
			return err
		}
		mine, err := t.ExchangeSummary(call.Ctx, theirs)
		if err != nil {
			return err
		}
		return call.Return(mine)
	})
	return svc, nil
}
