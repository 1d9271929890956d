package bench

// Self-healing HA failure tests: a replicated trader cluster over real
// TCP with failure detection and quorum-fenced auto-promotion armed.
// These are the wire-level counterparts of the in-process election
// tests in internal/trader — the full daemon wiring (service handlers,
// leader-hint redirects, journal fail-stop) exercised end to end, plus
// the failover-latency benchmark.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cosm/internal/cosm"
	"cosm/internal/journal"
	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/trader"
	"cosm/internal/typemgr"
	"cosm/internal/wire"
)

const haElectionTimeout = 150 * time.Millisecond

// haEndpoints reserves n listen ports up front: every member's cluster
// view must name the others before any member serves, and a revived
// member must come back on its old address.
func haEndpoints(tb testing.TB, n int) ([]string, []ref.ServiceRef) {
	tb.Helper()
	listeners := make([]net.Listener, n)
	endpoints := make([]string, n)
	refs := make([]ref.ServiceRef, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		listeners[i] = l
		endpoints[i] = fmt.Sprintf("tcp:127.0.0.1:%d", l.Addr().(*net.TCPAddr).Port)
		refs[i] = ref.New(endpoints[i], trader.ServiceName)
	}
	for _, l := range listeners {
		_ = l.Close()
	}
	return endpoints, refs
}

// haNode is one self-healing cluster member for these tests: a trader
// served over TCP on a fixed endpoint, a member of its cell. down/serve
// cycle the whole incarnation; the trader itself stays in memory,
// modelling a process whose network died and revived.
type haNode struct {
	tb       testing.TB
	endpoint string
	ref      ref.ServiceRef
	peers    []string
	tr       *trader.Trader

	node *cosm.Node
	pool *wire.Pool
	cell *trader.Cell

	// pullCut fails this member's replication pulls while its votes and
	// status scans still get through: it falls behind, yet stays in the
	// cell.
	pullCut atomic.Bool
}

// cutPeer is a dialled peer whose ReplPull obeys the owner's pullCut,
// a long poll already in flight when the cut falls included.
type cutPeer struct {
	trader.CellPeer
	cut *atomic.Bool
}

func (p cutPeer) ReplPull(ctx context.Context, followerID string, epoch, afterSeq uint64, max int, wait time.Duration) (*trader.ReplBatch, error) {
	if p.cut.Load() {
		return nil, errors.New("pull cut")
	}
	b, err := p.CellPeer.ReplPull(ctx, followerID, epoch, afterSeq, max, wait)
	if p.cut.Load() {
		return nil, errors.New("pull cut")
	}
	return b, err
}

func newHACluster(tb testing.TB, traders []*trader.Trader, endpoints []string, refs []ref.ServiceRef) []*haNode {
	tb.Helper()
	nodes := make([]*haNode, len(traders))
	for i, tr := range traders {
		var peers []string
		for j := range refs {
			if j != i {
				peers = append(peers, refs[j].String())
			}
		}
		nodes[i] = &haNode{tb: tb, endpoint: endpoints[i], ref: refs[i], peers: peers, tr: tr}
	}
	return nodes
}

func (n *haNode) serve() {
	n.tb.Helper()
	svc, err := trader.NewService(n.tr)
	if err != nil {
		n.tb.Fatal(err)
	}
	n.node = cosm.NewNode(cosm.WithNodeLog(func(string, ...any) {}))
	if err := n.node.Host(trader.ServiceName, svc); err != nil {
		n.tb.Fatal(err)
	}
	if _, err := n.node.ListenAndServe(n.endpoint); err != nil {
		n.tb.Fatal(err)
	}
	n.pool = wire.NewPool()
	dial := trader.PoolDial(n.pool)
	n.cell = n.tr.JoinCell(trader.CellConfig{
		SelfRef:         n.ref.String(),
		Peers:           n.peers,
		ElectionTimeout: haElectionTimeout,
		Dial: func(ctx context.Context, memberRef string) (trader.CellPeer, error) {
			p, err := dial(ctx, memberRef)
			return cutPeer{p, &n.pullCut}, err
		},
	})
	n.tb.Cleanup(n.down)
}

func (n *haNode) down() {
	if n.node == nil {
		return
	}
	n.cell.Close()
	_ = n.node.Close()
	n.pool.Close()
	n.node, n.pool, n.cell = nil, nil, nil
}

// haWait polls until cond holds or the deadline passes.
func haWait(tb testing.TB, deadline time.Duration, what string, cond func() bool) {
	tb.Helper()
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	tb.Fatalf("timed out waiting for %s", what)
}

// TestFailureAutoFailoverElectsMaxApplied: a journaled 3-node cluster
// with synchronous replication loses its leader. The follower holding
// more acknowledged records must win the election — max-applied-wins
// is what makes "acknowledged" mean "survives failover" — and every
// acknowledged export must be served by the new leader.
func TestFailureAutoFailoverElectsMaxApplied(t *testing.T) {
	ctx := context.Background()
	endpoints, refs := haEndpoints(t, 3)

	mk := func(id string, opts ...trader.Option) *trader.Trader {
		tr := trader.New(id, typemgr.NewRepo(), opts...)
		j, err := journal.Open(t.TempDir(), journal.Options{Fsync: journal.FsyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = j.Close() })
		if err := j.Recover(tr); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	leader := mk("ha0", trader.WithReplSync(1, 2*time.Second))
	ahead := mk("ha1")
	behind := mk("ha2")
	ahead.SetFollower(refs[0].String())
	behind.SetFollower(refs[0].String())

	nodes := newHACluster(t, []*trader.Trader{leader, ahead, behind}, endpoints, refs)
	for _, n := range nodes {
		n.serve()
	}

	pool := wire.NewPool()
	defer pool.Close()
	tc, err := trader.DialTrader(ctx, pool, refs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.DefineTypeFromSID(ctx, sidl.CarRentalSID()); err != nil {
		t.Fatal(err)
	}
	export := func(i int) {
		t.Helper()
		r := ref.New(fmt.Sprintf("tcp:10.4.0.%d:7000", i), "CarRentalService")
		if _, err := tc.Export(ctx, "CarRentalService", r, carProps(float64(50+i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		export(i)
	}
	haWait(t, 5*time.Second, "both followers caught up", func() bool {
		return ahead.ReplApplied() == behind.ReplApplied() && ahead.ReplApplied() > 0
	})

	// Cut ha2's pulls, then keep exporting: replication stays
	// synchronous through ha1 alone, so ha2 falls behind on records the
	// cluster acknowledged.
	nodes[2].pullCut.Store(true)
	for i := 5; i < 10; i++ {
		export(i)
	}
	if ahead.ReplApplied() <= behind.ReplApplied() {
		t.Fatalf("lag not established: ahead %d, behind %d", ahead.ReplApplied(), behind.ReplApplied())
	}

	// The leader dies. The cluster must elect ha1 — never ha2, whose
	// candidacy every up-to-date voter rejects on applied position.
	nodes[0].down()
	haWait(t, 15*time.Second, "ha1 to win the election", func() bool {
		return ahead.Role() == trader.RoleLeader
	})
	if behind.Role() == trader.RoleLeader {
		t.Fatal("the lagging follower took leadership")
	}
	if ahead.Epoch() == 0 {
		t.Fatal("winner's epoch = 0: promotion did not fence")
	}

	tw, err := trader.DialTrader(ctx, pool, refs[1])
	if err != nil {
		t.Fatal(err)
	}
	offers, err := tw.Import(ctx, trader.NewImport("CarRentalService"))
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 10 {
		t.Fatalf("new leader serves %d offers, want all 10 acknowledged", len(offers))
	}
}

// TestFailureMinorityCannotElect: a follower partitioned away from the
// rest of its 3-member cluster must never promote itself — quorum
// counts the configured cluster, not the reachable one, so a minority
// cannot mint a second leader no matter how long it retries.
func TestFailureMinorityCannotElect(t *testing.T) {
	ctx := context.Background()
	endpoints, refs := haEndpoints(t, 3)

	tr := trader.New("ha0", typemgr.NewRepo())
	tr.SetFollower(refs[1].String()) // a leader it will never reach
	nodes := newHACluster(t, []*trader.Trader{tr, nil, nil}, endpoints, refs)
	nodes[0].serve() // refs[1] and refs[2] stay dark: total partition

	time.Sleep(10 * haElectionTimeout) // many suspicion windows and rounds
	if got := tr.Role(); got != trader.RoleFollower {
		t.Fatalf("partitioned minority node is %q, must stay follower", got)
	}
	if e := tr.Epoch(); e != 0 {
		t.Fatalf("partitioned minority node fenced epoch %d without quorum", e)
	}

	// And it still refuses mutations, pointing at its (dead) leader.
	pool := wire.NewPool()
	defer pool.Close()
	tc, err := trader.DialTrader(ctx, pool, refs[0])
	if err != nil {
		t.Fatal(err)
	}
	_, err = tc.Export(ctx, "CarRentalService",
		ref.New("tcp:10.4.1.1:7000", "CarRentalService"), carProps(10))
	if err == nil || !strings.Contains(err.Error(), "not leader") {
		t.Fatalf("export on minority node = %v, want not-leader rejection", err)
	}
}

// TestFailureJournalFaultFailStop: an fsync failure on the leader's
// journal latches fail-stop. The export that hit the fault is NOT
// acknowledged, later writes are refused, the trader demotes itself,
// and reopening the directory recovers every acknowledged offer — no
// acked-but-unpersisted write exists.
func TestFailureJournalFaultFailStop(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	inj := journal.NewFaultInjector()
	j, err := journal.Open(dir, journal.Options{
		Fsync:     journal.FsyncAlways,
		FaultHook: inj.Hook(),
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := trader.New("HA", typemgr.NewRepo())
	if err := j.Recover(tr); err != nil {
		t.Fatal(err)
	}
	node := quietNode()
	svc, err := trader.NewService(tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Host(trader.ServiceName, svc); err != nil {
		t.Fatal(err)
	}
	if _, err := node.ListenAndServe("tcp:127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	pool := wire.NewPool()
	defer pool.Close()
	tc, err := trader.DialTrader(ctx, pool, node.MustRefFor(trader.ServiceName))
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.DefineTypeFromSID(ctx, sidl.CarRentalSID()); err != nil {
		t.Fatal(err)
	}
	var ackedIDs []string
	for i := 0; i < 3; i++ {
		id, err := tc.Export(ctx, "CarRentalService",
			ref.New(fmt.Sprintf("tcp:10.4.2.%d:7000", i), "CarRentalService"), carProps(float64(60+i)))
		if err != nil {
			t.Fatal(err)
		}
		ackedIDs = append(ackedIDs, id)
	}

	// The disk goes bad: the next fsync fails, permanently.
	inj.FailNow(journal.FaultFsync, errors.New("injected: disk on fire"))
	if _, err := tc.Export(ctx, "CarRentalService",
		ref.New("tcp:10.4.2.100:7000", "CarRentalService"), carProps(999)); err == nil {
		t.Fatal("export across the fsync fault was acknowledged")
	}
	if j.Failed() == nil {
		t.Fatal("journal did not latch fail-stop")
	}
	// Sticky: the fault injector fires once, but the journal stays dead.
	if _, err := tc.Export(ctx, "CarRentalService",
		ref.New("tcp:10.4.2.101:7000", "CarRentalService"), carProps(998)); err == nil {
		t.Fatal("export on a fail-stopped journal was acknowledged")
	}
	// The trader shed leadership rather than serve unpersistable writes.
	if st, err := tc.ReplStatus(ctx); err != nil || st.Role != trader.RoleFollower {
		t.Fatalf("fail-stopped trader status = %+v, %v; want demoted to follower", st, err)
	}

	// "Replace the disk": reopen the directory with a healthy journal.
	// Every acknowledged export must be there.
	_ = node.Close()
	_ = j.Close()
	j2, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	tr2 := trader.New("HA", typemgr.NewRepo())
	if err := j2.Recover(tr2); err != nil {
		t.Fatal(err)
	}
	offers, err := tr2.Import(ctx, trader.ImportRequest{Type: "CarRentalService"})
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, o := range offers {
		have[o.ID] = true
	}
	for _, id := range ackedIDs {
		if !have[id] {
			t.Fatalf("acknowledged export %s lost across the disk fault", id)
		}
	}
}

// TestFailureClientRedirectFollowsLeaderHint: a client bound to a
// follower, with redirects enabled, transparently lands its mutation
// on the leader — the wire-level check that the hint in the not-leader
// rejection round-trips through the real codec and back into a Bind.
func TestFailureClientRedirectFollowsLeaderHint(t *testing.T) {
	ctx := context.Background()
	endpoints, refs := haEndpoints(t, 2)

	leader := trader.New("HA", typemgr.NewRepo())
	follower := trader.New("HA", typemgr.NewRepo())
	follower.SetFollower(refs[0].String())
	nodes := newHACluster(t, []*trader.Trader{leader, follower}, endpoints, refs)
	// No monitors needed: this is purely the redirect path.
	for _, n := range nodes {
		svc, err := trader.NewService(n.tr)
		if err != nil {
			t.Fatal(err)
		}
		n.node = cosm.NewNode(cosm.WithNodeLog(func(string, ...any) {}))
		if err := n.node.Host(trader.ServiceName, svc); err != nil {
			t.Fatal(err)
		}
		if _, err := n.node.ListenAndServe(n.endpoint); err != nil {
			t.Fatal(err)
		}
		nn := n.node
		t.Cleanup(func() { _ = nn.Close() })
	}
	if err := leader.DefineTypeSIDL(sidl.CarRentalIDL); err != nil {
		t.Fatal(err)
	}

	pool := wire.NewPool()
	defer pool.Close()
	tf, err := trader.DialTrader(ctx, pool, refs[1])
	if err != nil {
		t.Fatal(err)
	}

	// Without redirects: a clean rejection naming the leader.
	_, err = tf.Export(ctx, "CarRentalService",
		ref.New("tcp:10.4.3.1:7000", "CarRentalService"), carProps(70))
	if err == nil {
		t.Fatal("follower accepted a mutation")
	}
	hint, ok := trader.LeaderHintFromError(err)
	if !ok || hint != refs[0].String() {
		t.Fatalf("rejection %q carries hint %q, want %q", err, hint, refs[0])
	}

	// With redirects: the same call lands on the leader.
	tf.FollowLeaderHints(true)
	id, err := tf.Export(ctx, "CarRentalService",
		ref.New("tcp:10.4.3.2:7000", "CarRentalService"), carProps(71))
	if err != nil {
		t.Fatalf("redirected export failed: %v", err)
	}
	offers, err := leader.Import(ctx, trader.ImportRequest{Type: "CarRentalService"})
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 1 || offers[0].ID != id {
		t.Fatalf("leader offers = %+v, want the redirected export %s", offers, id)
	}
}

// BenchmarkFailoverLatency measures detection + election: the wall
// time from the leader dropping off the network until a survivor of
// the 3-node cluster has won a quorum election and serves as leader.
// The revival of the deposed node between iterations is off the clock.
func BenchmarkFailoverLatency(b *testing.B) {
	endpoints, refs := haEndpoints(b, 3)
	traders := make([]*trader.Trader, 3)
	for i := range traders {
		tr := trader.New(fmt.Sprintf("ha%d", i), typemgr.NewRepo())
		j, err := journal.Open(b.TempDir(), journal.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = j.Close() })
		if err := j.Recover(tr); err != nil {
			b.Fatal(err)
		}
		traders[i] = tr
	}
	traders[1].SetFollower(refs[0].String())
	traders[2].SetFollower(refs[0].String())
	nodes := newHACluster(b, traders, endpoints, refs)
	for _, n := range nodes {
		n.serve()
	}
	leaderOf := func() *haNode {
		var best *haNode
		for _, n := range nodes {
			// Highest epoch wins the tie: a revived stale leader claims
			// its old epoch until its monitor demotes it.
			if n.node != nil && n.tr.Role() == trader.RoleLeader &&
				(best == nil || n.tr.Epoch() > best.tr.Epoch()) {
				best = n
			}
		}
		return best
	}
	wait := func(what string, cond func() bool) {
		haWait(b, 20*time.Second, what, cond)
	}
	wait("followers synced to the leader", func() bool {
		return traders[1].LeaderHint() != "" && traders[2].LeaderHint() != ""
	})

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := leaderOf()
		if l == nil {
			b.Fatal("no leader to kill")
		}
		epoch := l.tr.Epoch()
		l.down()
		wait("a survivor to win the election", func() bool {
			n := leaderOf()
			return n != nil && n.tr.Epoch() > epoch
		})
		b.StopTimer()
		// Revive the deposed node; its monitor finds the new epoch and
		// demote-rejoins, restoring the 3-node cluster for the next kill.
		l.serve()
		winner := leaderOf()
		wait("the deposed node to rejoin", func() bool {
			return l.tr.Role() == trader.RoleFollower && l.tr.Epoch() == winner.tr.Epoch()
		})
		b.StartTimer()
	}
}
