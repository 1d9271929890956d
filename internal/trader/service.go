package trader

import (
	"fmt"
	"time"

	"cosm/internal/cosm"
	"cosm/internal/journal"
	"cosm/internal/match"
	"cosm/internal/sidl"
	"cosm/internal/trader/core"
	"cosm/internal/wire"
	"cosm/internal/xcode"
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
        // Election: candidateId asks to lead at newEpoch, carrying its
        // applied position. At most one vote is granted per epoch, and
        // only to candidates at least as advanced as the voter.
        Vote_t RequestVote(in string candidateId, in long long newEpoch, in long long applied);
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

// traderTypes caches the parsed IDL types used by both the service
// facade and the typed client.
type traderTypes struct {
	sid     *sidl.SID
	strT    *sidl.Type
	refT    *sidl.Type
	int32T  *sidl.Type
	propT   *sidl.Type
	propsT  *sidl.Type
	offerT  *sidl.Type
	offersT *sidl.Type
	namesT  *sidl.Type
	importT *sidl.Type
	itemT   *sidl.Type
	itemsT  *sidl.Type

	int64T      *sidl.Type
	float64T    *sidl.Type
	boolT       *sidl.Type
	replRecT    *sidl.Type
	replRecsT   *sidl.Type
	replBatchT  *sidl.Type
	replStatusT *sidl.Type
	voteT       *sidl.Type

	linkInfoT   *sidl.Type
	linkInfosT  *sidl.Type
	sumEntryT   *sidl.Type
	sumEntriesT *sidl.Type
	summaryT    *sidl.Type
}

func newTraderTypes() (*traderTypes, error) {
	sid, err := sidl.Parse(IDL)
	if err != nil {
		return nil, fmt.Errorf("trader: internal IDL: %w", err)
	}
	return &traderTypes{
		sid:     sid,
		strT:    sidl.Basic(sidl.String),
		refT:    sidl.Basic(sidl.SvcRef),
		int32T:  sidl.Basic(sidl.Int32),
		propT:   sid.Type("Prop_t"),
		propsT:  sid.Type("Props_t"),
		offerT:  sid.Type("Offer_t"),
		offersT: sid.Type("Offers_t"),
		namesT:  sid.Type("Names_t"),
		importT: sid.Type("ImportReq_t"),
		itemT:   sid.Type("ExportItem_t"),
		itemsT:  sid.Type("ExportItems_t"),

		int64T:      sidl.Basic(sidl.Int64),
		float64T:    sidl.Basic(sidl.Float64),
		boolT:       sidl.Basic(sidl.Bool),
		replRecT:    sid.Type("ReplRecord_t"),
		replRecsT:   sid.Type("ReplRecords_t"),
		replBatchT:  sid.Type("ReplBatch_t"),
		replStatusT: sid.Type("ReplStatus_t"),
		voteT:       sid.Type("Vote_t"),

		linkInfoT:   sid.Type("LinkInfo_t"),
		linkInfosT:  sid.Type("LinkInfos_t"),
		sumEntryT:   sid.Type("SummaryEntry_t"),
		sumEntriesT: sid.Type("SummaryEntries_t"),
		summaryT:    sid.Type("Summary_t"),
	}, nil
}

// linkInfoValue encodes one link's observable state.
func (tt *traderTypes) linkInfoValue(li LinkInfo) (*xcode.Value, error) {
	var lastSeen int64
	if !li.LastSeen.IsZero() {
		lastSeen = li.LastSeen.UnixMilli()
	}
	ageMs := int64(-1)
	if li.SummaryAge >= 0 {
		ageMs = li.SummaryAge.Milliseconds()
	}
	return xcode.NewStruct(tt.linkInfoT, map[string]*xcode.Value{
		"name":           xcode.NewString(tt.strT, li.Name),
		"peerId":         xcode.NewString(tt.strT, li.PeerID),
		"state":          xcode.NewString(tt.strT, string(li.State)),
		"lastSeenUnixMs": xcode.NewInt(tt.int64T, lastSeen),
		"hops":           xcode.NewInt(tt.int32T, int64(li.Hops)),
		"summaryTypes":   xcode.NewInt(tt.int32T, int64(li.SummaryTypes)),
		"summaryGen":     xcode.NewInt(tt.int64T, int64(li.SummaryGen)),
		"summaryAgeMs":   xcode.NewInt(tt.int64T, ageMs),
	})
}

func linkInfoFromValue(v *xcode.Value) (LinkInfo, error) {
	var li LinkInfo
	name, err := v.Field("name")
	if err != nil {
		return li, err
	}
	li.Name = name.Str
	peer, err := v.Field("peerId")
	if err != nil {
		return li, err
	}
	li.PeerID = peer.Str
	state, err := v.Field("state")
	if err != nil {
		return li, err
	}
	li.State = wire.BreakerState(state.Str)
	if f, err := v.Field("lastSeenUnixMs"); err == nil && f.Int != 0 {
		li.LastSeen = time.UnixMilli(f.Int)
	}
	if f, err := v.Field("hops"); err == nil {
		li.Hops = int(f.Int)
	}
	if f, err := v.Field("summaryTypes"); err == nil {
		li.SummaryTypes = int(f.Int)
	}
	if f, err := v.Field("summaryGen"); err == nil {
		li.SummaryGen = uint64(f.Int)
	}
	li.SummaryAge = -1
	if f, err := v.Field("summaryAgeMs"); err == nil && f.Int >= 0 {
		li.SummaryAge = time.Duration(f.Int) * time.Millisecond
	}
	return li, nil
}

// summaryValue encodes one offer summary.
func (tt *traderTypes) summaryValue(s OfferSummary) (*xcode.Value, error) {
	elems := make([]*xcode.Value, len(s.Entries))
	for i, e := range s.Entries {
		ev, err := xcode.NewStruct(tt.sumEntryT, map[string]*xcode.Value{
			"serviceType": xcode.NewString(tt.strT, e.Type),
			"count":       xcode.NewInt(tt.int32T, int64(e.Count)),
			"hops":        xcode.NewInt(tt.int32T, int64(e.Hops)),
		})
		if err != nil {
			return nil, err
		}
		elems[i] = ev
	}
	seq, err := xcode.NewSequence(tt.sumEntriesT, elems...)
	if err != nil {
		return nil, err
	}
	return xcode.NewStruct(tt.summaryT, map[string]*xcode.Value{
		"from":    xcode.NewString(tt.strT, s.From),
		"gen":     xcode.NewInt(tt.int64T, int64(s.Gen)),
		"entries": seq,
	})
}

func summaryFromValue(v *xcode.Value) (OfferSummary, error) {
	var s OfferSummary
	from, err := v.Field("from")
	if err != nil {
		return s, err
	}
	s.From = from.Str
	gen, err := v.Field("gen")
	if err != nil {
		return s, err
	}
	s.Gen = uint64(gen.Int)
	entries, err := v.Field("entries")
	if err != nil {
		return s, err
	}
	for _, ev := range entries.Elems {
		st, err := ev.Field("serviceType")
		if err != nil {
			return s, err
		}
		count, err := ev.Field("count")
		if err != nil {
			return s, err
		}
		hops, err := ev.Field("hops")
		if err != nil {
			return s, err
		}
		s.Entries = append(s.Entries, SummaryEntry{Type: st.Str, Count: int(count.Int), Hops: int(hops.Int)})
	}
	return s, nil
}

func (tt *traderTypes) propsValue(props []sidl.Property) (*xcode.Value, error) {
	elems := make([]*xcode.Value, len(props))
	for i, p := range props {
		kind, text := core.EncodeLit(p.Value)
		pv, err := xcode.NewStruct(tt.propT, map[string]*xcode.Value{
			"name": xcode.NewString(tt.strT, p.Name),
			"kind": xcode.NewString(tt.strT, kind),
			"text": xcode.NewString(tt.strT, text),
		})
		if err != nil {
			return nil, err
		}
		elems[i] = pv
	}
	return xcode.NewSequence(tt.propsT, elems...)
}

func propsFromValue(v *xcode.Value) ([]sidl.Property, error) {
	props := make([]sidl.Property, 0, len(v.Elems))
	for _, pv := range v.Elems {
		name, err := pv.Field("name")
		if err != nil {
			return nil, err
		}
		kind, err := pv.Field("kind")
		if err != nil {
			return nil, err
		}
		text, err := pv.Field("text")
		if err != nil {
			return nil, err
		}
		lit, err := core.DecodeLit(kind.Str, text.Str)
		if err != nil {
			return nil, err
		}
		props = append(props, sidl.Property{Name: name.Str, Value: lit})
	}
	return props, nil
}

func (tt *traderTypes) offerValue(o *Offer) (*xcode.Value, error) {
	props := make([]sidl.Property, 0, len(o.Props))
	for _, name := range core.SortedPropNames(o.Props) {
		props = append(props, sidl.Property{Name: name, Value: o.Props[name]})
	}
	propsV, err := tt.propsValue(props)
	if err != nil {
		return nil, err
	}
	var expires int64
	if !o.Expires.IsZero() {
		expires = o.Expires.Unix()
	}
	return xcode.NewStruct(tt.offerT, map[string]*xcode.Value{
		"id":          xcode.NewString(tt.strT, o.ID),
		"serviceType": xcode.NewString(tt.strT, o.Type),
		"target":      xcode.NewRef(tt.refT, o.Ref),
		"props":       propsV,
		"expiresUnix": xcode.NewInt(sidl.Basic(sidl.Int64), expires),
		"suspect":     xcode.NewBool(sidl.Basic(sidl.Bool), o.Suspect),
	})
}

// matchValue encodes one graded import result: the offer plus its
// semantic grade and score.
func (tt *traderTypes) matchValue(m Match) (*xcode.Value, error) {
	ov, err := tt.offerValue(m.Offer)
	if err != nil {
		return nil, err
	}
	if err := ov.SetField("grade", xcode.NewString(tt.strT, m.Grade.String())); err != nil {
		return nil, err
	}
	if err := ov.SetField("score", xcode.NewFloat(tt.float64T, m.Score)); err != nil {
		return nil, err
	}
	return ov, nil
}

// matchFromValue decodes one graded import result. Offers sent by a
// trader that predates grading lack the grade/score fields and decode
// as GradeNone matches; the federation path re-grades those locally.
func matchFromValue(v *xcode.Value) (Match, error) {
	o, err := offerFromValue(v)
	if err != nil {
		return Match{}, err
	}
	m := Match{Offer: o}
	if gv, err := v.Field("grade"); err == nil {
		g, err := match.ParseGrade(gv.Str)
		if err != nil {
			return Match{}, err
		}
		m.Grade = g
	}
	if sv, err := v.Field("score"); err == nil {
		m.Score = sv.Float
	}
	return m, nil
}

func offerFromValue(v *xcode.Value) (*Offer, error) {
	id, err := v.Field("id")
	if err != nil {
		return nil, err
	}
	st, err := v.Field("serviceType")
	if err != nil {
		return nil, err
	}
	target, err := v.Field("target")
	if err != nil {
		return nil, err
	}
	propsV, err := v.Field("props")
	if err != nil {
		return nil, err
	}
	props, err := propsFromValue(propsV)
	if err != nil {
		return nil, err
	}
	o := &Offer{ID: id.Str, Type: st.Str, Ref: target.Ref, Props: make(map[string]sidl.Lit, len(props))}
	for _, p := range props {
		o.Props[p.Name] = p.Value
	}
	if ev, err := v.Field("expiresUnix"); err == nil && ev.Int != 0 {
		o.Expires = time.Unix(ev.Int, 0)
	}
	if sv, err := v.Field("suspect"); err == nil {
		o.Suspect = sv.Bool
	}
	return o, nil
}

// exportItemValue encodes one batch-export item.
func (tt *traderTypes) exportItemValue(it ExportItem) (*xcode.Value, error) {
	propsV, err := tt.propsValue(it.Props)
	if err != nil {
		return nil, err
	}
	return xcode.NewStruct(tt.itemT, map[string]*xcode.Value{
		"serviceType": xcode.NewString(tt.strT, it.Type),
		"target":      xcode.NewRef(tt.refT, it.Ref),
		"props":       propsV,
		"ttlSeconds":  xcode.NewInt(sidl.Basic(sidl.Int64), int64(it.TTL/time.Second)),
	})
}

func exportItemFromValue(v *xcode.Value) (ExportItem, error) {
	var it ExportItem
	st, err := v.Field("serviceType")
	if err != nil {
		return it, err
	}
	target, err := v.Field("target")
	if err != nil {
		return it, err
	}
	propsV, err := v.Field("props")
	if err != nil {
		return it, err
	}
	props, err := propsFromValue(propsV)
	if err != nil {
		return it, err
	}
	ttl, err := v.Field("ttlSeconds")
	if err != nil {
		return it, err
	}
	return ExportItem{Type: st.Str, Ref: target.Ref, Props: props, TTL: time.Duration(ttl.Int) * time.Second}, nil
}

// namesValue encodes a string slice as Names_t.
func (tt *traderTypes) namesValue(names []string) (*xcode.Value, error) {
	elems := make([]*xcode.Value, len(names))
	for i, n := range names {
		elems[i] = xcode.NewString(tt.strT, n)
	}
	return xcode.NewSequence(tt.namesT, elems...)
}

// NewService wraps a Trader as a hosted COSM service.
func NewService(t *Trader) (*cosm.Service, error) {
	tt, err := newTraderTypes()
	if err != nil {
		return nil, err
	}
	svc, err := cosm.NewService(tt.sid)
	if err != nil {
		return nil, err
	}

	strArg := func(call *cosm.Call, name string) (string, error) {
		v, err := call.Arg(name)
		if err != nil {
			return "", err
		}
		return v.Str, nil
	}
	propsArg := func(call *cosm.Call) ([]sidl.Property, error) {
		v, err := call.Arg("props")
		if err != nil {
			return nil, err
		}
		return propsFromValue(v)
	}

	svc.MustHandle("Export", func(call *cosm.Call) error {
		serviceType, err := strArg(call, "serviceType")
		if err != nil {
			return err
		}
		target, err := call.Arg("target")
		if err != nil {
			return err
		}
		props, err := propsArg(call)
		if err != nil {
			return err
		}
		id, err := t.Export(serviceType, target.Ref, props)
		if err != nil {
			return err
		}
		call.Result = xcode.NewString(tt.strT, id)
		return nil
	})
	svc.MustHandle("ExportLease", func(call *cosm.Call) error {
		serviceType, err := strArg(call, "serviceType")
		if err != nil {
			return err
		}
		target, err := call.Arg("target")
		if err != nil {
			return err
		}
		props, err := propsArg(call)
		if err != nil {
			return err
		}
		ttl, err := call.Arg("ttlSeconds")
		if err != nil {
			return err
		}
		id, err := t.ExportLease(serviceType, target.Ref, props, time.Duration(ttl.Int)*time.Second)
		if err != nil {
			return err
		}
		call.Result = xcode.NewString(tt.strT, id)
		return nil
	})
	svc.MustHandle("ExportSID", func(call *cosm.Call) error {
		text, err := strArg(call, "sidlText")
		if err != nil {
			return err
		}
		target, err := call.Arg("target")
		if err != nil {
			return err
		}
		sid, err := sidl.Parse(text)
		if err != nil {
			return err
		}
		id, err := t.ExportSID(sid, target.Ref)
		if err != nil {
			return err
		}
		call.Result = xcode.NewString(tt.strT, id)
		return nil
	})
	svc.MustHandle("ExportAll", func(call *cosm.Call) error {
		itemsV, err := call.Arg("items")
		if err != nil {
			return err
		}
		items := make([]ExportItem, 0, len(itemsV.Elems))
		for _, iv := range itemsV.Elems {
			it, err := exportItemFromValue(iv)
			if err != nil {
				return err
			}
			items = append(items, it)
		}
		ids, err := t.ExportAll(items)
		if err != nil {
			return err
		}
		seq, err := tt.namesValue(ids)
		if err != nil {
			return err
		}
		call.Result = seq
		return nil
	})
	svc.MustHandle("Withdraw", func(call *cosm.Call) error {
		id, err := strArg(call, "offerId")
		if err != nil {
			return err
		}
		return t.Withdraw(id)
	})
	svc.MustHandle("WithdrawAll", func(call *cosm.Call) error {
		idsV, err := call.Arg("offerIds")
		if err != nil {
			return err
		}
		ids := make([]string, 0, len(idsV.Elems))
		for _, e := range idsV.Elems {
			ids = append(ids, e.Str)
		}
		n, err := t.WithdrawAll(ids)
		if err != nil {
			return err
		}
		call.Result = xcode.NewInt(tt.int32T, int64(n))
		return nil
	})
	svc.MustHandle("Replace", func(call *cosm.Call) error {
		id, err := strArg(call, "offerId")
		if err != nil {
			return err
		}
		props, err := propsArg(call)
		if err != nil {
			return err
		}
		return t.Replace(id, props)
	})
	svc.MustHandle("Import", func(call *cosm.Call) error {
		reqV, err := call.Arg("req")
		if err != nil {
			return err
		}
		req, err := importReqFromValue(reqV)
		if err != nil {
			return err
		}
		ms, err := t.ImportGraded(call.Ctx, req)
		if err != nil {
			return err
		}
		elems := make([]*xcode.Value, len(ms))
		for i, m := range ms {
			mv, err := tt.matchValue(m)
			if err != nil {
				return err
			}
			elems[i] = mv
		}
		seq, err := xcode.NewSequence(tt.offersT, elems...)
		if err != nil {
			return err
		}
		call.Result = seq
		return nil
	})
	svc.MustHandle("DefineTypeFromSID", func(call *cosm.Call) error {
		text, err := strArg(call, "sidlText")
		if err != nil {
			return err
		}
		return t.DefineTypeSIDL(text)
	})
	svc.MustHandle("TypeNames", func(call *cosm.Call) error {
		names := t.Types().Names()
		elems := make([]*xcode.Value, len(names))
		for i, n := range names {
			elems[i] = xcode.NewString(tt.strT, n)
		}
		seq, err := xcode.NewSequence(tt.namesT, elems...)
		if err != nil {
			return err
		}
		call.Result = seq
		return nil
	})
	svc.MustHandle("RemoveType", func(call *cosm.Call) error {
		name, err := strArg(call, "name")
		if err != nil {
			return err
		}
		return t.RemoveType(name)
	})
	svc.MustHandle("ReplPull", func(call *cosm.Call) error {
		followerID, err := strArg(call, "followerId")
		if err != nil {
			return err
		}
		intArg := func(name string) (int64, error) {
			v, err := call.Arg(name)
			if err != nil {
				return 0, err
			}
			return v.Int, nil
		}
		epoch, err := intArg("epoch")
		if err != nil {
			return err
		}
		afterSeq, err := intArg("afterSeq")
		if err != nil {
			return err
		}
		max, err := intArg("max")
		if err != nil {
			return err
		}
		waitMs, err := intArg("waitMs")
		if err != nil {
			return err
		}
		b, err := t.PullBatch(call.Ctx, followerID, uint64(epoch), uint64(afterSeq), int(max), time.Duration(waitMs)*time.Millisecond)
		if err != nil {
			return err
		}
		bv, err := tt.replBatchValue(b)
		if err != nil {
			return err
		}
		call.Result = bv
		return nil
	})
	svc.MustHandle("Promote", func(call *cosm.Call) error {
		epoch, err := call.Arg("epoch")
		if err != nil {
			return err
		}
		return t.Promote(uint64(epoch.Int))
	})
	svc.MustHandle("ReplStatus", func(call *cosm.Call) error {
		st := t.Status()
		sv, err := xcode.NewStruct(tt.replStatusT, map[string]*xcode.Value{
			"role":    xcode.NewString(tt.strT, st.Role),
			"epoch":   xcode.NewInt(tt.int64T, int64(st.Epoch)),
			"lastSeq": xcode.NewInt(tt.int64T, int64(st.LastSeq)),
			"applied": xcode.NewInt(tt.int64T, int64(st.Applied)),
			"leader":  xcode.NewString(tt.strT, st.Leader),
		})
		if err != nil {
			return err
		}
		call.Result = sv
		return nil
	})
	svc.MustHandle("RequestVote", func(call *cosm.Call) error {
		candidateID, err := strArg(call, "candidateId")
		if err != nil {
			return err
		}
		newEpoch, err := call.Arg("newEpoch")
		if err != nil {
			return err
		}
		applied, err := call.Arg("applied")
		if err != nil {
			return err
		}
		v, err := t.RequestVote(call.Ctx, candidateID, uint64(newEpoch.Int), uint64(applied.Int))
		if err != nil {
			return err
		}
		vv, err := xcode.NewStruct(tt.voteT, map[string]*xcode.Value{
			"granted":   xcode.NewBool(tt.boolT, v.Granted),
			"role":      xcode.NewString(tt.strT, v.Role),
			"epoch":     xcode.NewInt(tt.int64T, int64(v.Epoch)),
			"applied":   xcode.NewInt(tt.int64T, int64(v.Applied)),
			"leader":    xcode.NewString(tt.strT, v.Leader),
			"voteEpoch": xcode.NewInt(tt.int64T, int64(v.VoteEpoch)),
		})
		if err != nil {
			return err
		}
		call.Result = vv
		return nil
	})
	svc.MustHandle("LinkAdd", func(call *cosm.Call) error {
		name, err := strArg(call, "name")
		if err != nil {
			return err
		}
		peerV, err := call.Arg("peer")
		if err != nil {
			return err
		}
		if t.linkDialer == nil {
			return ErrNoLinkDialer
		}
		peer, err := t.linkDialer(call.Ctx, peerV.Ref)
		if err != nil {
			return err
		}
		return t.AddLink(name, peer)
	})
	svc.MustHandle("LinkRemove", func(call *cosm.Call) error {
		name, err := strArg(call, "name")
		if err != nil {
			return err
		}
		return t.RemoveLink(name)
	})
	svc.MustHandle("LinkList", func(call *cosm.Call) error {
		links := t.Links()
		elems := make([]*xcode.Value, len(links))
		for i, li := range links {
			lv, err := tt.linkInfoValue(li)
			if err != nil {
				return err
			}
			elems[i] = lv
		}
		seq, err := xcode.NewSequence(tt.linkInfosT, elems...)
		if err != nil {
			return err
		}
		call.Result = seq
		return nil
	})
	svc.MustHandle("SummaryExchange", func(call *cosm.Call) error {
		sumV, err := call.Arg("summary")
		if err != nil {
			return err
		}
		theirs, err := summaryFromValue(sumV)
		if err != nil {
			return err
		}
		mine, err := t.ExchangeSummary(call.Ctx, theirs)
		if err != nil {
			return err
		}
		mv, err := tt.summaryValue(mine)
		if err != nil {
			return err
		}
		call.Result = mv
		return nil
	})
	return svc, nil
}

func voteFromValue(v *xcode.Value) (Vote, error) {
	var out Vote
	granted, err := v.Field("granted")
	if err != nil {
		return out, err
	}
	out.Granted = granted.Bool
	role, err := v.Field("role")
	if err != nil {
		return out, err
	}
	out.Role = role.Str
	leader, err := v.Field("leader")
	if err != nil {
		return out, err
	}
	out.Leader = leader.Str
	epoch, err := v.Field("epoch")
	if err != nil {
		return out, err
	}
	out.Epoch = uint64(epoch.Int)
	applied, err := v.Field("applied")
	if err != nil {
		return out, err
	}
	out.Applied = uint64(applied.Int)
	voteEpoch, err := v.Field("voteEpoch")
	if err != nil {
		return out, err
	}
	out.VoteEpoch = uint64(voteEpoch.Int)
	return out, nil
}

// replBatchValue encodes one replication batch. Record payloads and
// snapshots are logical JSON, carried verbatim in string fields.
func (tt *traderTypes) replBatchValue(b *ReplBatch) (*xcode.Value, error) {
	recs := make([]*xcode.Value, len(b.Records))
	for i, r := range b.Records {
		rv, err := xcode.NewStruct(tt.replRecT, map[string]*xcode.Value{
			"seq":     xcode.NewInt(tt.int64T, int64(r.Seq)),
			"payload": xcode.NewString(tt.strT, string(r.Payload)),
		})
		if err != nil {
			return nil, err
		}
		recs[i] = rv
	}
	recsSeq, err := xcode.NewSequence(tt.replRecsT, recs...)
	if err != nil {
		return nil, err
	}
	return xcode.NewStruct(tt.replBatchT, map[string]*xcode.Value{
		"epoch":       xcode.NewInt(tt.int64T, int64(b.Epoch)),
		"lastSeq":     xcode.NewInt(tt.int64T, int64(b.LastSeq)),
		"snapshotSeq": xcode.NewInt(tt.int64T, int64(b.SnapshotSeq)),
		"snapshot":    xcode.NewString(tt.strT, string(b.Snapshot)),
		"records":     recsSeq,
	})
}

func replBatchFromValue(v *xcode.Value) (*ReplBatch, error) {
	b := &ReplBatch{}
	ints := []struct {
		name string
		dst  *uint64
	}{
		{"epoch", &b.Epoch},
		{"lastSeq", &b.LastSeq},
		{"snapshotSeq", &b.SnapshotSeq},
	}
	for _, f := range ints {
		fv, err := v.Field(f.name)
		if err != nil {
			return nil, err
		}
		*f.dst = uint64(fv.Int)
	}
	snap, err := v.Field("snapshot")
	if err != nil {
		return nil, err
	}
	if snap.Str != "" {
		b.Snapshot = []byte(snap.Str)
	}
	recsV, err := v.Field("records")
	if err != nil {
		return nil, err
	}
	for _, rv := range recsV.Elems {
		seq, err := rv.Field("seq")
		if err != nil {
			return nil, err
		}
		payload, err := rv.Field("payload")
		if err != nil {
			return nil, err
		}
		b.Records = append(b.Records, journal.Record{Seq: uint64(seq.Int), Payload: []byte(payload.Str)})
	}
	return b, nil
}

func replStatusFromValue(v *xcode.Value) (ReplStatus, error) {
	var st ReplStatus
	role, err := v.Field("role")
	if err != nil {
		return st, err
	}
	st.Role = role.Str
	leader, err := v.Field("leader")
	if err != nil {
		return st, err
	}
	st.Leader = leader.Str
	ints := []struct {
		name string
		dst  *uint64
	}{
		{"epoch", &st.Epoch},
		{"lastSeq", &st.LastSeq},
		{"applied", &st.Applied},
	}
	for _, f := range ints {
		fv, err := v.Field(f.name)
		if err != nil {
			return st, err
		}
		*f.dst = uint64(fv.Int)
	}
	return st, nil
}

func importReqFromValue(v *xcode.Value) (ImportRequest, error) {
	var req ImportRequest
	fields := []struct {
		name string
		dst  *string
	}{
		{"serviceType", &req.Type},
		{"constraint", &req.Constraint},
		{"policy", &req.Policy},
	}
	for _, f := range fields {
		fv, err := v.Field(f.name)
		if err != nil {
			return req, err
		}
		*f.dst = fv.Str
	}
	maxV, err := v.Field("max")
	if err != nil {
		return req, err
	}
	req.Max = int(maxV.Int)
	hopV, err := v.Field("hopLimit")
	if err != nil {
		return req, err
	}
	req.HopLimit = int(hopV.Int)
	visitedV, err := v.Field("visited")
	if err != nil {
		return req, err
	}
	for _, e := range visitedV.Elems {
		req.visited = append(req.visited, e.Str)
	}
	// Scatter knobs arrived in a later protocol revision; tolerate their
	// absence so an old client's request still decodes.
	if f, err := v.Field("maxPeers"); err == nil {
		req.MaxPeers = int(f.Int)
	}
	if f, err := v.Field("hedgeMs"); err == nil && f.Int > 0 {
		req.Hedge = time.Duration(f.Int) * time.Millisecond
	}
	// The semantic grade floor arrived with graded matching; an absent
	// or unknown value falls back to the default (subtype conformance).
	if f, err := v.Field("minGrade"); err == nil {
		if g, err := match.ParseGrade(f.Str); err == nil {
			req.MinGrade = g
		}
	}
	return req, nil
}

func (tt *traderTypes) importReqValue(req ImportRequest) (*xcode.Value, error) {
	visited := make([]*xcode.Value, len(req.visited))
	for i, s := range req.visited {
		visited[i] = xcode.NewString(tt.strT, s)
	}
	visitedSeq, err := xcode.NewSequence(tt.namesT, visited...)
	if err != nil {
		return nil, err
	}
	return xcode.NewStruct(tt.importT, map[string]*xcode.Value{
		"serviceType": xcode.NewString(tt.strT, req.Type),
		"constraint":  xcode.NewString(tt.strT, req.Constraint),
		"policy":      xcode.NewString(tt.strT, req.Policy),
		"max":         xcode.NewInt(tt.int32T, int64(req.Max)),
		"hopLimit":    xcode.NewInt(tt.int32T, int64(req.HopLimit)),
		"visited":     visitedSeq,
		"maxPeers":    xcode.NewInt(tt.int32T, int64(req.MaxPeers)),
		"hedgeMs":     xcode.NewInt(tt.int64T, req.Hedge.Milliseconds()),
		"minGrade":    xcode.NewString(tt.strT, req.MinGrade.String()),
	})
}
