package trader

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"cosm/internal/journal"
	"cosm/internal/obs"
	"cosm/internal/sidl"
)

// inProc makes a *Trader a CellPeer without a wire in between.
type inProc struct{ *Trader }

func (p inProc) ReplPull(ctx context.Context, followerID string, epoch, afterSeq uint64, max int, wait time.Duration) (*ReplBatch, error) {
	return p.PullBatch(ctx, followerID, epoch, afterSeq, max, wait)
}

func (p inProc) ReplStatus(context.Context) (ReplStatus, error) { return p.Status(), nil }

// peerDirectory wires cells to in-process traders: each ref resolves
// to a *Trader unless marked down, which models a crashed node.
type peerDirectory struct {
	mu      sync.Mutex
	traders map[string]*Trader
	down    map[string]bool
}

func newPeerDirectory() *peerDirectory {
	return &peerDirectory{traders: map[string]*Trader{}, down: map[string]bool{}}
}

func (d *peerDirectory) add(ref string, t *Trader) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.traders[ref] = t
}

func (d *peerDirectory) setDown(ref string, down bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.down[ref] = down
}

// dial resolves one peer. The returned proxy re-checks liveness per
// call, so a node going down mid-election looks like a broken wire, not
// a stale cached client.
func (d *peerDirectory) dial(_ context.Context, ref string) (CellPeer, error) {
	return &peerProxy{d: d, ref: ref}, nil
}

type peerProxy struct {
	d   *peerDirectory
	ref string
}

func (p *peerProxy) target() (inProc, error) {
	p.d.mu.Lock()
	defer p.d.mu.Unlock()
	if p.d.down[p.ref] {
		return inProc{}, fmt.Errorf("dial %s: connection refused", p.ref)
	}
	t := p.d.traders[p.ref]
	if t == nil {
		return inProc{}, fmt.Errorf("dial %s: unknown peer", p.ref)
	}
	return inProc{t}, nil
}

func (p *peerProxy) ReplPull(ctx context.Context, followerID string, epoch, afterSeq uint64, max int, wait time.Duration) (*ReplBatch, error) {
	t, err := p.target()
	if err != nil {
		return nil, err
	}
	return t.ReplPull(ctx, followerID, epoch, afterSeq, max, wait)
}

func (p *peerProxy) RequestVote(ctx context.Context, candidateID string, newEpoch, applied, tailEpoch uint64) (Vote, error) {
	t, err := p.target()
	if err != nil {
		return Vote{}, err
	}
	return t.RequestVote(ctx, candidateID, newEpoch, applied, tailEpoch)
}

func (p *peerProxy) ReplStatus(ctx context.Context) (ReplStatus, error) {
	t, err := p.target()
	if err != nil {
		return ReplStatus{}, err
	}
	return t.ReplStatus(ctx)
}

// testMonitor assembles a cell member without starting its loops; the
// tests drive its election steps by hand. These tests name every trader
// "L", so the member ID is set apart from the FederationID.
func testMonitor(t *testing.T, tr *Trader, d *peerDirectory, selfID, selfRef string, peers ...string) *Cell {
	t.Helper()
	c := newCell(tr, CellConfig{
		SelfRef:         selfRef,
		Peers:           peers,
		Dial:            d.dial,
		ElectionTimeout: 200 * time.Millisecond,
	})
	c.id = selfID
	return c
}

// TestRequestVoteFencing exercises every deny rule of the vote
// protocol: live-leader deny, stale epoch, max-applied, the pull-health
// veto, and the per-epoch vote lock.
func TestRequestVoteFencing(t *testing.T) {
	ctx := context.Background()
	leader, lj := newDurableTrader(t, "L", t.TempDir(), journal.Options{Fsync: journal.FsyncAlways})
	defer lj.Close()
	if err := leader.DefineTypeSIDL(sidl.CarRentalIDL); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := leader.Export("CarRentalService", carRef(i), carProps("FIAT_Uno", 50, "USD")); err != nil {
			t.Fatal(err)
		}
	}

	// A healthy leader denies any candidacy, and reports itself.
	v, err := leader.RequestVote(ctx, "X", leader.Epoch()+5, 1<<30, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if v.Granted || v.Role != RoleLeader {
		t.Fatalf("healthy leader granted a vote: %+v", v)
	}

	follower, fj := newDurableTrader(t, "L", t.TempDir(), journal.Options{Fsync: journal.FsyncAlways})
	defer fj.Close()
	follower.SetFollower("cosm://leader")
	syncUp(t, leader, follower, "f1")
	tail, applied := follower.logEnd()

	// Stale epoch: the group is already at or past it.
	if v, _ = follower.RequestVote(ctx, "X", follower.Epoch(), applied, tail); v.Granted {
		t.Fatal("granted a vote at a stale epoch")
	}
	// Max-applied: a candidate missing acknowledged records is denied.
	if v, _ = follower.RequestVote(ctx, "X", follower.Epoch()+1, applied-1, tail); v.Granted {
		t.Fatal("granted a vote to a candidate behind our applied position")
	}
	// Health veto: our own pulls still succeed, so the leader is alive.
	follower.repl.voteHealthWindow.Store(int64(time.Hour))
	follower.repl.lastPullOK.Store(follower.now().UnixNano())
	if v, _ = follower.RequestVote(ctx, "X", follower.Epoch()+1, applied, tail); v.Granted {
		t.Fatal("granted a vote while our own leader link is healthy")
	}
	follower.repl.voteHealthWindow.Store(0)

	// Grant, then the vote lock: one vote per epoch, idempotent for the
	// same candidate, denied to a rival.
	if v, _ = follower.RequestVote(ctx, "X", follower.Epoch()+1, applied, tail); !v.Granted {
		t.Fatalf("expected a grant: %+v", v)
	}
	if v, _ = follower.RequestVote(ctx, "X", follower.Epoch()+1, applied, tail); !v.Granted {
		t.Fatal("re-request by the same candidate must stay granted")
	}
	if v, _ = follower.RequestVote(ctx, "Y", follower.Epoch()+1, applied, tail); v.Granted {
		t.Fatal("epoch's vote already pledged to X, rival Y must be denied")
	}
	// A higher epoch re-opens the lock.
	if v, _ = follower.RequestVote(ctx, "Y", follower.Epoch()+2, applied, tail); !v.Granted {
		t.Fatal("fresh epoch must accept a new candidate")
	}
}

// TestElectionMaxAppliedWins kills the leader of a three-node group and
// requires that only the most-advanced follower can assemble a quorum:
// the lagging follower's candidacy dies on the max-applied rule, the
// advanced follower promotes, and the laggard relocates to the winner.
func TestElectionMaxAppliedWins(t *testing.T) {
	ctx := context.Background()
	leader, lj := newDurableTrader(t, "L", t.TempDir(), journal.Options{Fsync: journal.FsyncAlways})
	defer lj.Close()
	if err := leader.DefineTypeSIDL(sidl.CarRentalIDL); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := leader.Export("CarRentalService", carRef(i), carProps("FIAT_Uno", 50, "USD")); err != nil {
			t.Fatal(err)
		}
	}

	ahead, aj := newDurableTrader(t, "L", t.TempDir(), journal.Options{Fsync: journal.FsyncAlways},
		WithMetrics(obs.NewRegistry()))
	defer aj.Close()
	ahead.SetFollower("cosm://L")
	behind, bj := newDurableTrader(t, "L", t.TempDir(), journal.Options{Fsync: journal.FsyncAlways})
	defer bj.Close()
	behind.SetFollower("cosm://L")

	syncUp(t, leader, behind, "behind")
	for i := 4; i < 8; i++ {
		if _, err := leader.Export("CarRentalService", carRef(i), carProps("FIAT_Uno", 50, "USD")); err != nil {
			t.Fatal(err)
		}
	}
	syncUp(t, leader, ahead, "ahead") // only "ahead" sees the last four

	dir := newPeerDirectory()
	dir.add("cosm://L", leader)
	dir.add("cosm://A", ahead)
	dir.add("cosm://B", behind)
	dir.setDown("cosm://L", true) // leader crashes

	mA := testMonitor(t, ahead, dir, "A", "cosm://A", "cosm://B", "cosm://L")
	mB := testMonitor(t, behind, dir, "B", "cosm://B", "cosm://A", "cosm://L")
	// Age both followers' pull health past the veto window — with the
	// leader dead, their pulls would have been failing.
	ahead.repl.lastPullOK.Store(1)
	behind.repl.lastPullOK.Store(1)

	// The laggard stands first and must lose: "ahead" denies on the
	// max-applied rule, and the dead leader cannot vote.
	mB.electionRound(ctx)
	if behind.Role() != RoleFollower {
		t.Fatal("lagging candidate must not win an election")
	}

	// The advanced follower stands. Its first target epoch may collide
	// with B's failed self-vote lock, so a candidacy is retried — each
	// retry moves to a fresh epoch, exactly like a Raft term.
	won := false
	for i := 0; i < 3 && !won; i++ {
		mA.electionRound(ctx)
		won = ahead.Role() == RoleLeader
	}
	if !won {
		t.Fatal("most-advanced follower failed to win with a quorum of 2/3")
	}
	if got := ahead.metrics.elections.With("won").Value(); got == 0 {
		t.Fatal("election win not counted in cosm_trader_elections_total")
	}

	// The laggard's next suspicion scan finds the new leader and
	// relocates instead of electing again.
	if !mB.relocate(ctx) {
		t.Fatal("laggard did not relocate to the new leader")
	}
	if hint := behind.LeaderHint(); hint != "cosm://A" {
		t.Fatalf("laggard relocated to %q, want cosm://A", hint)
	}
}

// TestElectionMinorityCannotPromote isolates a follower from both other
// members of a three-node group: with only its own vote it can never
// reach the quorum of 2, no matter how many rounds it runs.
func TestElectionMinorityCannotPromote(t *testing.T) {
	ctx := context.Background()
	alone, j := newDurableTrader(t, "L", t.TempDir(), journal.Options{Fsync: journal.FsyncAlways},
		WithMetrics(obs.NewRegistry()))
	defer j.Close()
	alone.SetFollower("cosm://L")

	dir := newPeerDirectory()
	dir.setDown("cosm://L", true)
	dir.setDown("cosm://B", true)
	m := testMonitor(t, alone, dir, "A", "cosm://A", "cosm://B", "cosm://L")
	alone.repl.lastPullOK.Store(1)

	for i := 0; i < 5; i++ {
		m.electionRound(ctx)
	}
	if alone.Role() != RoleFollower {
		t.Fatal("partitioned minority promoted itself: split brain")
	}
	if got := alone.metrics.elections.With("lost").Value(); got != 5 {
		t.Fatalf("lost-election count = %d, want 5", got)
	}
}

// TestDeposedLeaderRejoins runs the leader-side scan: an old leader
// that the group elected past discovers the winner, demote-rejoins as
// its follower, and converges — its divergent unacknowledged tail
// replaced by the winner's snapshot, not merged.
func TestDeposedLeaderRejoins(t *testing.T) {
	ctx := context.Background()
	old, oj := newDurableTrader(t, "L", t.TempDir(), journal.Options{Fsync: journal.FsyncAlways})
	defer oj.Close()
	if err := old.DefineTypeSIDL(sidl.CarRentalIDL); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := old.Export("CarRentalService", carRef(i), carProps("FIAT_Uno", 50, "USD")); err != nil {
			t.Fatal(err)
		}
	}

	winner, wj := newDurableTrader(t, "L", t.TempDir(), journal.Options{Fsync: journal.FsyncAlways})
	defer wj.Close()
	winner.SetFollower("cosm://old")
	syncUp(t, old, winner, "w")

	// The group elects past the old leader while it is isolated; the
	// old leader keeps writing a tail nobody acknowledged.
	if err := winner.Promote(old.Epoch() + 1); err != nil {
		t.Fatal(err)
	}
	if _, err := winner.Export("CarRentalService", carRef(10), carProps("AUDI", 200, "GBP")); err != nil {
		t.Fatal(err)
	}
	if _, err := old.Export("CarRentalService", carRef(99), carProps("VW_Golf", 75, "DEM")); err != nil {
		t.Fatal(err)
	}

	dir := newPeerDirectory()
	dir.add("cosm://W", winner)
	m := testMonitor(t, old, dir, "O", "cosm://O", "cosm://W")
	m.leaderScan(ctx)

	if old.Role() != RoleFollower {
		t.Fatal("deposed leader did not demote after discovering a higher epoch")
	}
	syncUp(t, winner, old, "o")

	req := ImportRequest{Type: "CarRentalService"}
	want, err := winner.Import(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := old.Import(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(offersJSON(t, got), offersJSON(t, want)) {
		t.Fatalf("rejoined leader diverges:\n got %s\nwant %s", offersJSON(t, got), offersJSON(t, want))
	}
	for _, o := range got {
		if lit, ok := o.Props["CarModel"]; ok && lit.Str == "VW_Golf" {
			t.Fatal("divergent unacknowledged export survived the rejoin")
		}
	}
}

// TestFollowerRetargetsOnLeaderHint drives the pull loop against a
// demoted source: the not-leader rejection's hint must re-point the
// loop at the real leader, and pulls must then succeed.
func TestFollowerRetargetsOnLeaderHint(t *testing.T) {
	leader, lj := newDurableTrader(t, "L", t.TempDir(), journal.Options{Fsync: journal.FsyncAlways})
	defer lj.Close()
	if err := leader.DefineTypeSIDL(sidl.CarRentalIDL); err != nil {
		t.Fatal(err)
	}
	demoted, dj := newDurableTrader(t, "L", t.TempDir(), journal.Options{Fsync: journal.FsyncAlways})
	defer dj.Close()
	demoted.SetFollower("cosm://real-leader")

	follower, fj := newDurableTrader(t, "L", t.TempDir(), journal.Options{Fsync: journal.FsyncAlways})
	defer fj.Close()
	follower.SetFollower("cosm://demoted")

	sources := map[string]*Trader{
		"cosm://demoted":     demoted,
		"cosm://real-leader": leader,
	}
	results := make(chan error, 64)
	f := follower.JoinCell(CellConfig{Dial: func(_ context.Context, leaderRef string) (CellPeer, error) {
		src, ok := sources[leaderRef]
		if !ok {
			return nil, fmt.Errorf("unknown leader %q", leaderRef)
		}
		return pullTap{inProc{src}, results}, nil
	}})
	defer f.Close()

	deadline := time.After(5 * time.Second)
	sawReject, sawOK := false, false
	for !sawOK {
		select {
		case err := <-results:
			if err != nil && errors.Is(err, ErrNotLeader) || err != nil && containsLeaderAt(err) {
				sawReject = true
			}
			if err == nil {
				sawOK = true
			}
		case <-deadline:
			t.Fatal("pull loop never recovered via the leader hint")
		}
	}
	if !sawReject {
		t.Fatal("pull loop never hit the demoted source")
	}
	if got := follower.LeaderHint(); got != "cosm://real-leader" {
		t.Fatalf("pull loop targets %q, want the hinted leader", got)
	}
}

// pullTap reports the outcome of every pull through it.
type pullTap struct {
	inProc
	results chan<- error
}

func (p pullTap) ReplPull(ctx context.Context, followerID string, epoch, afterSeq uint64, max int, wait time.Duration) (*ReplBatch, error) {
	b, err := p.inProc.ReplPull(ctx, followerID, epoch, afterSeq, max, wait)
	p.results <- err
	return b, err
}

func containsLeaderAt(err error) bool {
	_, ok := LeaderHintFromError(err)
	return ok
}

// TestLeaderHintFromError pins the hint parser to both the local error
// form and its flattened over-the-wire text.
func TestLeaderHintFromError(t *testing.T) {
	cases := []struct {
		err  error
		want string
		ok   bool
	}{
		{fmt.Errorf("%w (leader at cosm://host:9/Trader)", ErrNotLeader), "cosm://host:9/Trader", true},
		{errors.New("remote: trader: not leader (leader at cosm://x:1/T)"), "cosm://x:1/T", true},
		{errors.New("trader: not leader"), "", false},
		{errors.New("leader at "), "", false},
		{nil, "", false},
	}
	for _, c := range cases {
		got, ok := LeaderHintFromError(c.err)
		if got != c.want || ok != c.ok {
			t.Errorf("LeaderHintFromError(%v) = %q,%v want %q,%v", c.err, got, ok, c.want, c.ok)
		}
	}
}
