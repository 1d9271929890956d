package trader

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"cosm/internal/cosm"
	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/wire"
)

// Client is a typed wrapper over a dynamic binding to a remote trader.
// It implements Federate, so a local trader can link remote traders into
// a federation exactly like in-process ones.
type Client struct {
	pool *wire.Pool
	fid  string

	// redirect makes mutations chase a not-leader rejection's hint
	// (FollowLeaderHints); mu guards conn and leader across re-binds.
	redirect bool
	mu       sync.RWMutex
	conn     *cosm.Conn
	// leader caches the binding a leader hint pointed at, so every
	// mutation after the first goes straight to the leader instead of
	// paying a rejection + redirect round trip. Reads stay on conn (a
	// follower serves them locally, by design). Invalidated whenever
	// the cached binding answers with ErrNotLeader.
	leader *cosm.Conn
}

var (
	_ Federate = (*Client)(nil)
	_ CellPeer = (*Client)(nil)
)

// DialTrader binds to the trader behind r.
func DialTrader(ctx context.Context, pool *wire.Pool, r ref.ServiceRef) (*Client, error) {
	conn, err := cosm.Bind(ctx, pool, r)
	if err != nil {
		return nil, err
	}
	return &Client{pool: pool, conn: conn, fid: r.String()}, nil
}

// PoolDial is the CellDial of a deployed member: parse the ref, bind a
// *Client over pool.
func PoolDial(pool *wire.Pool) CellDial {
	return func(ctx context.Context, memberRef string) (CellPeer, error) {
		r, err := ref.Parse(memberRef)
		if err != nil {
			return nil, err
		}
		return DialTrader(ctx, pool, r)
	}
}

// FederationID identifies the remote trader by its reference.
func (c *Client) FederationID() string { return c.fid }

// FollowLeaderHints makes mutation calls follow a not-leader rejection:
// when a demoted trader answers with "(leader at <ref>)", the client
// re-binds to that ref, remembers the leader binding for subsequent
// mutations, and retries the call once. Reads are unaffected (followers
// serve them locally, by design). Set before sharing the client between
// goroutines.
func (c *Client) FollowLeaderHints(on bool) { c.redirect = on }

// call routes one invocation through the current connection: args are
// encoded as, and result decoded from, the types the bound trader's SID
// gives the operation (see cosm.Conn.Call).
func (c *Client) call(ctx context.Context, op string, result any, args ...any) error {
	c.mu.RLock()
	conn := c.conn
	c.mu.RUnlock()
	return conn.Call(ctx, op, result, args...)
}

// isNotLeaderError recognises a not-leader rejection whether it is the
// local ErrNotLeader or its text after crossing the wire.
func isNotLeaderError(err error) bool {
	if err == nil {
		return false
	}
	return errors.Is(err, ErrNotLeader) || strings.Contains(err.Error(), ErrNotLeader.Error())
}

// mutConn picks the binding a mutation should use: the cached leader
// when hints are followed and one is known, the primary otherwise.
func (c *Client) mutConn() (conn *cosm.Conn, cached bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.redirect && c.leader != nil {
		return c.leader, true
	}
	return c.conn, false
}

// dropLeader invalidates the cached leader binding if it still is conn
// (a racing mutation may have already re-bound to a fresher leader).
func (c *Client) dropLeader(conn *cosm.Conn) {
	c.mu.Lock()
	if c.leader == conn {
		c.leader = nil
	}
	c.mu.Unlock()
}

// callMut is call for mutations: under FollowLeaderHints mutations go
// straight to the last known leader, and a not-leader rejection
// invalidates that cache, re-binds to the rejection's hinted leader and
// retries once.
func (c *Client) callMut(ctx context.Context, op string, result any, args ...any) error {
	conn, cached := c.mutConn()
	err := conn.Call(ctx, op, result, args...)
	if err == nil || !c.redirect || !isNotLeaderError(err) {
		return err
	}
	if cached {
		// The cached leader was deposed; stop steering mutations at it.
		c.dropLeader(conn)
	}
	hint, ok := LeaderHintFromError(err)
	if !ok {
		if !cached {
			return err
		}
		// A stale cached leader with no forwarding hint: fall back to
		// the primary binding, which may know the new leader.
		c.mu.RLock()
		primary := c.conn
		c.mu.RUnlock()
		return primary.Call(ctx, op, result, args...)
	}
	r, perr := ref.Parse(hint)
	if perr != nil {
		return err
	}
	lconn, berr := cosm.Bind(ctx, c.pool, r)
	if berr != nil {
		return err
	}
	c.mu.Lock()
	c.leader = lconn
	c.mu.Unlock()
	return lconn.Call(ctx, op, result, args...)
}

// Export registers an offer at the remote trader.
func (c *Client) Export(ctx context.Context, serviceType string, target ref.ServiceRef, props []sidl.Property) (string, error) {
	var id string
	if err := c.callMut(ctx, "Export", &id, serviceType, target, wireProps(props)); err != nil {
		return "", fmt.Errorf("trader: remote export: %w", err)
	}
	return id, nil
}

// ExportLease registers an offer with a lease at the remote trader.
// ttl is rounded down to whole seconds; zero means no expiry.
func (c *Client) ExportLease(ctx context.Context, serviceType string, target ref.ServiceRef, props []sidl.Property, ttl time.Duration) (string, error) {
	var id string
	if err := c.callMut(ctx, "ExportLease", &id, serviceType, target, wireProps(props), int64(ttl/time.Second)); err != nil {
		return "", fmt.Errorf("trader: remote export lease: %w", err)
	}
	return id, nil
}

// ExportAll registers a batch of offers at the remote trader in one
// round trip. The batch registers completely or not at all; the
// returned IDs parallel items. Lease TTLs are rounded down to whole
// seconds.
func (c *Client) ExportAll(ctx context.Context, items []ExportItem) ([]string, error) {
	var ids []string
	if err := c.callMut(ctx, "ExportAll", &ids, wireExportItems(items)); err != nil {
		return nil, fmt.Errorf("trader: remote export batch: %w", err)
	}
	return ids, nil
}

// ExportSID registers an offer from SIDL text carrying a trader export.
func (c *Client) ExportSID(ctx context.Context, sid *sidl.SID, target ref.ServiceRef) (string, error) {
	text, err := sid.MarshalText()
	if err != nil {
		return "", err
	}
	var id string
	if err := c.callMut(ctx, "ExportSID", &id, string(text), target); err != nil {
		return "", fmt.Errorf("trader: remote export SID: %w", err)
	}
	return id, nil
}

// Withdraw removes an offer at the remote trader.
func (c *Client) Withdraw(ctx context.Context, offerID string) error {
	if err := c.callMut(ctx, "Withdraw", nil, offerID); err != nil {
		return fmt.Errorf("trader: remote withdraw: %w", err)
	}
	return nil
}

// WithdrawAll removes a batch of offers at the remote trader in one
// round trip and returns how many were actually withdrawn. Unknown IDs
// are skipped (idempotent). As for Trader.WithdrawAll, the count is
// meaningful beside an error: a sync-replication timeout reports the
// withdrawals the trader had applied by then.
func (c *Client) WithdrawAll(ctx context.Context, offerIDs []string) (int, error) {
	var n int
	if err := c.callMut(ctx, "WithdrawAll", &n, offerIDs); err != nil {
		// The service appends "(withdrew N)" to a failure; any other
		// error text leaves n at 0.
		if i := strings.LastIndex(err.Error(), "(withdrew "); i >= 0 {
			_, _ = fmt.Sscanf(err.Error()[i:], "(withdrew %d)", &n)
		}
		return n, fmt.Errorf("trader: remote withdraw batch: %w", err)
	}
	return n, nil
}

// Replace replaces an offer's properties at the remote trader.
func (c *Client) Replace(ctx context.Context, offerID string, props []sidl.Property) error {
	if err := c.callMut(ctx, "Replace", nil, offerID, wireProps(props)); err != nil {
		return fmt.Errorf("trader: remote replace: %w", err)
	}
	return nil
}

// Import matches offers at the remote trader. It is ImportGraded with
// the grades dropped.
func (c *Client) Import(ctx context.Context, req ImportRequest) ([]*Offer, error) {
	return offersOf(c.ImportGraded(ctx, req))
}

// ImportGraded matches offers at the remote trader, keeping the
// semantic grade and score of every match. A trader that predates
// grading answers plain offers; those decode as GradeNone matches
// (which the federation path re-grades locally).
func (c *Client) ImportGraded(ctx context.Context, req ImportRequest) ([]Match, error) {
	var ws []offerWire
	if err := c.call(ctx, "Import", &ws, wireImportReq(req)); err != nil {
		return nil, fmt.Errorf("trader: remote import: %w", err)
	}
	ms := make([]Match, len(ws))
	for i := range ws {
		m, err := ws[i].match()
		if err != nil {
			return nil, err
		}
		ms[i] = m
	}
	return ms, nil
}

// DefineTypeFromSID registers a service type at the remote trader's
// management interface, derived from SIDL text with a trader export.
func (c *Client) DefineTypeFromSID(ctx context.Context, sid *sidl.SID) error {
	text, err := sid.MarshalText()
	if err != nil {
		return err
	}
	if err := c.callMut(ctx, "DefineTypeFromSID", nil, string(text)); err != nil {
		return fmt.Errorf("trader: remote define type: %w", err)
	}
	return nil
}

// TypeNames lists the remote trader's registered service types.
func (c *Client) TypeNames(ctx context.Context) ([]string, error) {
	var names []string
	if err := c.call(ctx, "TypeNames", &names); err != nil {
		return nil, fmt.Errorf("trader: remote type names: %w", err)
	}
	return names, nil
}

// RemoveType removes a service type at the remote trader.
func (c *Client) RemoveType(ctx context.Context, name string) error {
	if err := c.callMut(ctx, "RemoveType", nil, name); err != nil {
		return fmt.Errorf("trader: remote remove type: %w", err)
	}
	return nil
}

var _ SummaryPeer = (*Client)(nil)

// LinkAdd registers a named federation link at the remote trader,
// pointing at the trader behind peer. The remote trader resolves peer
// with its own link dialer.
func (c *Client) LinkAdd(ctx context.Context, name string, peer ref.ServiceRef) error {
	if err := c.callMut(ctx, "LinkAdd", nil, name, peer); err != nil {
		return fmt.Errorf("trader: remote link add: %w", err)
	}
	return nil
}

// LinkRemove removes a federation link at the remote trader.
func (c *Client) LinkRemove(ctx context.Context, name string) error {
	if err := c.callMut(ctx, "LinkRemove", nil, name); err != nil {
		return fmt.Errorf("trader: remote link remove: %w", err)
	}
	return nil
}

// LinkList returns the remote trader's federation links.
func (c *Client) LinkList(ctx context.Context) ([]LinkInfo, error) {
	var ws []linkInfoWire
	if err := c.call(ctx, "LinkList", &ws); err != nil {
		return nil, fmt.Errorf("trader: remote link list: %w", err)
	}
	return linkInfosFromWire(ws), nil
}

// ExchangeSummary implements SummaryPeer over the wire: it pushes s to
// the remote trader and returns the summary it replies with, so a
// gossip round over a remote link works exactly like in-process.
func (c *Client) ExchangeSummary(ctx context.Context, s OfferSummary) (OfferSummary, error) {
	var theirs OfferSummary
	if err := c.call(ctx, "SummaryExchange", &theirs, s); err != nil {
		return OfferSummary{}, fmt.Errorf("trader: remote summary exchange: %w", err)
	}
	return theirs, nil
}

// ReplPull pulls one replication batch from the remote trader: up to
// max journal records after afterSeq, long-polling up to wait for new
// ones. With RequestVote and ReplStatus it makes the client a CellPeer.
func (c *Client) ReplPull(ctx context.Context, followerID string, epoch, afterSeq uint64, max int, wait time.Duration) (*ReplBatch, error) {
	var w replBatchWire
	if err := c.call(ctx, "ReplPull", &w, followerID, epoch, afterSeq, max, int64(wait/time.Millisecond)); err != nil {
		return nil, fmt.Errorf("trader: remote repl pull: %w", err)
	}
	return w.batch(), nil
}

// Promote asks the remote trader to take leadership at the given
// fencing epoch (which must be strictly greater than any it has seen).
func (c *Client) Promote(ctx context.Context, epoch uint64) error {
	if err := c.call(ctx, "Promote", nil, epoch); err != nil {
		return fmt.Errorf("trader: remote promote: %w", err)
	}
	return nil
}

// ReplStatus reports the remote trader's replication role and
// position.
func (c *Client) ReplStatus(ctx context.Context) (ReplStatus, error) {
	var st ReplStatus
	if err := c.call(ctx, "ReplStatus", &st); err != nil {
		return ReplStatus{}, fmt.Errorf("trader: remote repl status: %w", err)
	}
	return st, nil
}

// RequestVote asks the remote trader for its vote in an election for
// newEpoch, declaring where the candidate's log ends (see RequestVote
// on Trader).
func (c *Client) RequestVote(ctx context.Context, candidateID string, newEpoch, applied, tailEpoch uint64) (Vote, error) {
	var v Vote
	if err := c.call(ctx, "RequestVote", &v, candidateID, newEpoch, applied, tailEpoch); err != nil {
		return Vote{}, fmt.Errorf("trader: remote request vote: %w", err)
	}
	return v, nil
}
