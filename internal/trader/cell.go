package trader

// A replication cell is a group of traders holding one market: one
// leader, the rest read replicas. A Cell is this trader's membership of
// it — the one value that owns the member's two background loops.
//
// The pull loop keeps a follower converging on its leader: pull from
// wherever LeaderHint() points, apply, back off on errors, chase the
// hint of a not-leader rejection, idle while this trader leads.
//
// The failover monitor (only with CellConfig.Peers) watches the leader
// through the pull loop — cellSuspicion consecutive failed pulls mark it
// suspect and trigger an election. A candidate asks every other member
// for a vote at the next epoch, carrying its applied position; a member
// grants at most one vote per epoch, only to candidates at least as
// advanced as itself, and only when its own leader link looks dead too
// (RequestVote in election.go has the rules). Promotion requires a
// majority of the configured cell — the candidate's own vote included —
// so a partitioned minority can never mint a second leader for an epoch.
// The winner journals the new epoch through the exact same Promote path
// an operator would use.
//
// Leaders run the same monitor in the other direction: a periodic scan
// for a higher epoch. A leader that was deposed while down discovers the
// winner there and demote-rejoins as its follower — catching up through
// the ordinary pull path, with its divergent unacknowledged tail rewound
// by the first snapshot install — instead of staying fenced-and-dead.

import (
	"context"
	"hash/fnv"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// CellPeer is what a member needs from another member of its cell: the
// replication pull and the election exchange. *Client implements it over
// the wire; tests substitute in-process peers.
type CellPeer interface {
	ReplPull(ctx context.Context, followerID string, epoch, afterSeq uint64, max int, wait time.Duration) (*ReplBatch, error)
	RequestVote(ctx context.Context, candidateID string, newEpoch, applied, tailEpoch uint64) (Vote, error)
	ReplStatus(ctx context.Context) (ReplStatus, error)
}

// CellDial resolves a member's service ref into a CellPeer. Dialing is
// lazy and retried, so members may come up in any order.
type CellDial func(ctx context.Context, memberRef string) (CellPeer, error)

// CellConfig describes this trader's place in its replication cell.
type CellConfig struct {
	// SelfRef is this member's own service ref, so peer status hints
	// naming it are recognised as "us" and never chased.
	SelfRef string
	// Peers are the refs of the OTHER configured members; the quorum
	// rule counts len(Peers)+1 members total. Empty means a plain read
	// replica: the pull loop alone, no failure detection, no elections.
	Peers []string
	// Dial reaches the leader and the peers.
	Dial CellDial
	// ElectionTimeout bounds one election round, paces the monitor's
	// periodic scans, and doubles as the voter health-veto window
	// (default 2s).
	ElectionTimeout time.Duration
	// OnPromote, when set, observes a successful auto-promotion (the
	// daemon logs it).
	OnPromote func(epoch uint64)
}

const (
	// cellSuspicion is how many consecutive failed pulls mark the
	// leader suspect.
	cellSuspicion = 3

	pullBaseBackoff = 50 * time.Millisecond
	pullMaxBackoff  = 2 * time.Second
	pullIdlePoll    = 250 * time.Millisecond
)

// Cell is one trader's running membership of a replication cell; see
// JoinCell.
type Cell struct {
	t    *Trader
	repl *replState
	id   string // FederationID: the name acks and votes are keyed by
	cfg  CellConfig

	peerMu sync.Mutex
	peers  map[string]CellPeer

	// src is the peer the pull loop currently pulls from and srcRef the
	// hint it was dialled for; only the pull loop touches them.
	src    CellPeer
	srcRef string

	misses  atomic.Int32  // consecutive failed pulls
	suspect chan struct{} // wakes the monitor early once suspicion trips

	pullJitter, paceJitter *rand.Rand // one per loop
	pull, monitor          loop
}

// JoinCell makes t a running member of its replication cell and returns
// the membership; Close ends it. The member ID is t's FederationID (it
// must be unique within the cell: the vote lock is keyed by it), and
// the leader to pull from is wherever t.LeaderHint() points — set by
// SetFollower, recovered role, election or hint chase alike — so there
// is no separate retarget step. With cfg.Peers the failover monitor
// runs too, and t's vote health veto is armed with the election
// timeout. Call after recovery and SetFollower/Promote, once t serves.
func (t *Trader) JoinCell(cfg CellConfig) *Cell {
	c := newCell(t, cfg)
	c.start()
	return c
}

// newCell builds the membership without starting its loops.
func newCell(t *Trader, cfg CellConfig) *Cell {
	if cfg.ElectionTimeout <= 0 {
		cfg.ElectionTimeout = 2 * time.Second
	}
	c := &Cell{
		t:          t,
		repl:       &t.repl,
		id:         t.id,
		cfg:        cfg,
		peers:      make(map[string]CellPeer),
		suspect:    make(chan struct{}, 1),
		pullJitter: newJitter(t.id),
		paceJitter: newJitter(t.id + "/monitor"),
	}
	if len(cfg.Peers) > 0 {
		c.repl.armVeto(cfg.ElectionTimeout)
	}
	return c
}

func (c *Cell) start() {
	c.pull.start(c.runPull)
	if len(c.cfg.Peers) > 0 {
		// Grace period: a node that has never pulled is not "suspicious",
		// it is booting — without this, a cell coming up out of order
		// would elect over a merely slow leader.
		c.repl.startGrace(c.t.now())
		c.monitor.start(c.runMonitor)
	}
}

// Close stops the monitor, then the pull loop, waiting for both.
func (c *Cell) Close() {
	c.monitor.stop()
	c.pull.stop()
}

// runPull is the pull loop: repeatedly pull from the leader, apply, and
// back off on errors with seeded jitter (base/2 extra, capped at 2s —
// decorrelating retry stampedes when a leader dies under several
// followers at once). The loop idles while the trader itself leads, so
// it survives promotion and a later demote-rejoin without restarting.
func (c *Cell) runPull(ctx context.Context) {
	backoff := pullBaseBackoff
	for ctx.Err() == nil {
		if !c.repl.isFollower() {
			c.sleep(ctx, pullIdlePoll)
			continue
		}
		src := c.source(ctx)
		if src == nil {
			c.sleep(ctx, backoff)
			continue
		}
		// Long-poll an idle leader for at most one election timeout: a
		// healthy link must report a good pull well inside the two that
		// suspectNow allows, or it reads as a wedged loop and the member
		// relocates to its own leader.
		wait := min(2*time.Second, c.cfg.ElectionTimeout)
		b, err := src.ReplPull(ctx, c.id, c.repl.fenced(), c.t.ReplApplied(), 512, wait)
		if err == nil {
			_, err = c.t.ApplyBatch(b)
		}
		if ctx.Err() != nil {
			return
		}
		c.observePull(err)
		if err != nil {
			c.t.log.Log(ctx, "repl_pull_error", "err", err.Error())
			if hint, ok := LeaderHintFromError(err); ok && hint != c.cfg.SelfRef {
				// The rejection names the real leader: chase the hint
				// instead of hammering the deposed node (a hint naming
				// this member is stale news of its own reign).
				c.repl.setLeaderHint(hint)
			}
			c.sleep(ctx, backoff)
			if backoff *= 2; backoff > pullMaxBackoff {
				backoff = pullMaxBackoff
			}
			continue
		}
		backoff = pullBaseBackoff
	}
}

// source returns the peer to pull from, dialling afresh when the leader
// hint moved. A failed dial keeps the old source (pulling a dead ref
// errors harmlessly, and counts towards suspicion) and retries next
// round; nil means there is nowhere to pull from yet.
func (c *Cell) source(ctx context.Context) CellPeer {
	want := c.t.LeaderHint()
	if want == "" || want == c.srcRef {
		return c.src
	}
	fresh, err := c.peer(ctx, want)
	if err != nil {
		c.t.log.Log(ctx, "repl_retarget_error", "leader", want, "err", err.Error())
		return c.src
	}
	c.src, c.srcRef = fresh, want
	c.t.log.Log(ctx, "repl_retarget", "leader", want)
	return fresh
}

// sleep waits for d plus up to d/2 of seeded jitter, returning early on
// cancellation.
func (c *Cell) sleep(ctx context.Context, d time.Duration) {
	c.t.pause(ctx, d+upTo(c.pullJitter, d/2), nil)
}

// observePull counts consecutive misses and wakes the monitor once the
// suspicion window fills.
func (c *Cell) observePull(err error) {
	if err == nil {
		c.misses.Store(0)
		return
	}
	if c.misses.Add(1) >= cellSuspicion {
		select {
		case c.suspect <- struct{}{}:
		default:
		}
	}
}

// runMonitor is the failure-detection and election loop.
func (c *Cell) runMonitor(ctx context.Context) {
	for ctx.Err() == nil {
		// Pace: about half an election timeout (with seeded jitter, so
		// rival candidates decorrelate), or earlier on suspicion.
		base := c.cfg.ElectionTimeout / 2
		c.t.pause(ctx, base+upTo(c.paceJitter, base), c.suspect)
		if ctx.Err() != nil {
			return
		}
		if c.t.journal.Failed() != nil {
			// Fail-stopped disk: this node can neither lead nor vote
			// itself forward; it sheds until an operator replaces it.
			continue
		}
		if !c.repl.isFollower() {
			c.leaderScan(ctx)
			continue
		}
		if c.suspectNow() {
			c.t.event(ctx, "suspect", "node", c.id, "misses", strconv.Itoa(int(c.misses.Load())))
			// Decorrelate rival candidacies: followers detect a dead
			// leader together (their pulls fail together), and rivals
			// standing together split every vote round on the per-epoch
			// locks. A random pre-candidacy delay lets one stand first
			// — the other finds the winner in its relocate scan. Same
			// trick as Raft's randomized election timeout.
			c.t.pause(ctx, upTo(c.paceJitter, c.cfg.ElectionTimeout/2), nil)
			if ctx.Err() != nil {
				return
			}
			if c.relocate(ctx) {
				continue // a live leader exists; no election needed
			}
			c.electionRound(ctx)
		}
	}
}

// suspectNow reports whether the leader currently looks dead: the
// suspicion window filled with consecutive misses, or no pull has
// succeeded for two election timeouts (covers a wedged loop that
// produces no results at all).
func (c *Cell) suspectNow() bool {
	if c.misses.Load() >= cellSuspicion {
		return true
	}
	age, ever := c.repl.sincePullOK(c.t.now())
	return ever && age > 2*c.cfg.ElectionTimeout
}

// follow re-points this member at a live leader found by a scan or a
// vote round, granting the new link a fresh grace period.
func (c *Cell) follow(ctx context.Context, leaderRef string) {
	c.t.metrics.elections.With("relocated").Inc()
	c.t.event(ctx, "relocate", "leader", leaderRef)
	c.repl.setLeaderHint(leaderRef)
	c.resetHealth()
}

// resetHealth clears suspicion after the member changed leaders or
// became one.
func (c *Cell) resetHealth() {
	c.misses.Store(0)
	c.repl.notePullOK(c.t.now())
}

// peerStatus is one peer's status snapshot gathered by scanPeers.
type peerStatus struct {
	ref string
	st  ReplStatus
}

// scanPeers polls every configured peer's replication status, dropping
// unreachable ones.
func (c *Cell) scanPeers(ctx context.Context) []peerStatus {
	sts, errs := ask(ctx, c, CellPeer.ReplStatus)
	var out []peerStatus
	for i, err := range errs {
		if err == nil {
			out = append(out, peerStatus{ref: c.cfg.Peers[i], st: sts[i]})
		}
	}
	return out
}

// ask calls every configured peer at once, bounded by one election
// timeout, and returns the replies and errors by peer position: what a
// round decides never depends on the order the replies arrived in.
func ask[R any](ctx context.Context, c *Cell, call func(CellPeer, context.Context) (R, error)) ([]R, []error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.ElectionTimeout)
	defer cancel()
	replies, errs := make([]R, len(c.cfg.Peers)), make([]error, len(c.cfg.Peers))
	var wg sync.WaitGroup
	for i, ref := range c.cfg.Peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := c.peer(ctx, ref)
			if err == nil {
				replies[i], err = call(p, ctx)
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	return replies, errs
}

// bestLeader picks from a scan the ref of the highest-epoch leader at
// or past minEpoch. A member reporting itself leader is direct
// evidence; a follower's hint counts only at an epoch strictly past
// minEpoch (second-hand news of a newer leader), so a follower merely
// echoing the current leader cannot satisfy a deposed-leader scan.
func bestLeader(peers []peerStatus, minEpoch uint64, selfRef string) (string, uint64) {
	ref, epoch := "", uint64(0)
	for _, p := range peers {
		switch {
		case p.st.Role == RoleLeader && p.st.Epoch >= minEpoch && p.st.Epoch >= epoch && p.ref != selfRef:
			ref, epoch = p.ref, p.st.Epoch
		case p.st.Role == RoleFollower && p.st.Epoch > minEpoch && p.st.Epoch > epoch &&
			p.st.Leader != "" && p.st.Leader != selfRef:
			ref, epoch = p.st.Leader, p.st.Epoch
		}
	}
	return ref, epoch
}

// leaderScan (leader side) looks for a higher epoch in the cell: a
// leader that was deposed while down discovers the winner here and
// rejoins as its follower instead of staying fenced.
func (c *Cell) leaderScan(ctx context.Context) {
	cur := c.t.Epoch()
	ref, epoch := bestLeader(c.scanPeers(ctx), cur+1, c.cfg.SelfRef)
	if ref == "" {
		return
	}
	c.t.metrics.elections.With("deposed").Inc()
	c.t.event(ctx, "deposed", "winner", ref, "epoch", strconv.FormatUint(epoch, 10),
		"own_epoch", strconv.FormatUint(cur, 10))
	c.t.DemoteRejoin(ref)
	c.resetHealth()
}

// relocate (follower side) checks whether a live leader is reachable
// before holding an election: the suspect leader itself answering the
// scan, or another member knowing of a newer one, just re-points the
// pull loop.
func (c *Cell) relocate(ctx context.Context) bool {
	ref, _ := bestLeader(c.scanPeers(ctx), c.t.Epoch(), c.cfg.SelfRef)
	if ref == "" {
		return false
	}
	c.follow(ctx, ref)
	return true
}

// electionRound runs one candidacy: vote for self at epoch+1, fan a
// RequestVote out to every peer, and promote on a strict majority of
// the configured cell. Losing is cheap — the loop paces with jitter
// and retries while the leader stays dead.
func (c *Cell) electionRound(ctx context.Context) {
	cur := c.t.Epoch()
	tail, applied := c.t.logEnd()
	target := c.repl.electionTarget()
	if ok, err := c.repl.tryVote(c.id, target); !ok {
		// A rival's concurrent RequestVote pledged our vote between
		// picking the target and locking it, or the pledge could not be
		// persisted; the next round moves past.
		c.t.logVotePersist(ctx, target, err)
		return
	}
	c.t.event(ctx, "candidacy", "candidate", c.id,
		"epoch", strconv.FormatUint(target, 10),
		"applied", strconv.FormatUint(applied, 10),
		"tail_epoch", strconv.FormatUint(tail, 10))
	replies, errs := ask(ctx, c, func(p CellPeer, ctx context.Context) (Vote, error) {
		return p.RequestVote(ctx, c.id, target, applied, tail)
	})
	votes := 1 // our own
	leaderRef := ""
	maxPledge := uint64(0)
	for i, v := range replies {
		if errs[i] != nil {
			continue
		}
		if v.Granted {
			votes++
		}
		if v.VoteEpoch > maxPledge {
			maxPledge = v.VoteEpoch
		}
		if v.Role == RoleLeader && v.Epoch >= cur {
			leaderRef = c.cfg.Peers[i]
		}
	}
	quorum := (len(c.cfg.Peers)+1)/2 + 1
	switch {
	case leaderRef != "":
		// A live leader answered the vote round: the outage was on our
		// side (or already healed). Re-point instead of promoting.
		c.follow(ctx, leaderRef)
	case votes >= quorum:
		if err := c.t.Promote(target); err != nil {
			c.t.log.Log(ctx, "election_promote_failed", "epoch", target, "err", err.Error())
			return
		}
		c.t.metrics.elections.With("won").Inc()
		c.t.event(ctx, "election_won", "epoch", strconv.FormatUint(target, 10),
			"votes", strconv.Itoa(votes), "quorum", strconv.Itoa(quorum))
		c.resetHealth()
		if c.cfg.OnPromote != nil {
			c.cfg.OnPromote(target)
		}
	default:
		// Adopt the round's highest observed vote pledge, so the next
		// candidacy stands past it instead of losing to the same lock
		// one epoch higher each round.
		c.t.logVotePersist(ctx, maxPledge, c.repl.adoptVoteEpoch(maxPledge))
		c.t.metrics.elections.With("lost").Inc()
		c.t.event(ctx, "election_lost", "epoch", strconv.FormatUint(target, 10),
			"votes", strconv.Itoa(votes), "quorum", strconv.Itoa(quorum))
	}
}

// peer dials (and caches) one member. Entries survive broken
// connections — Client calls ride a pool that re-dials — so eviction
// is unnecessary.
func (c *Cell) peer(ctx context.Context, ref string) (CellPeer, error) {
	c.peerMu.Lock()
	p := c.peers[ref]
	c.peerMu.Unlock()
	if p != nil {
		return p, nil
	}
	p, err := c.cfg.Dial(ctx, ref)
	if err != nil {
		return nil, err
	}
	c.peerMu.Lock()
	c.peers[ref] = p
	c.peerMu.Unlock()
	return p, nil
}

// loop is the lifecycle every background loop of the trader shares —
// the cell's pull loop and monitor, the Gossiper, the Sweeper: start
// runs once, stop is idempotent, safe before start, and returns only
// after run has (so a round in flight is waited for, not abandoned).
type loop struct {
	mu      sync.Mutex
	cancel  context.CancelFunc // nil until started
	done    chan struct{}
	stopped bool
}

// start launches run on its own goroutine, with a context stop cancels.
// A second start, or a start after stop, does nothing.
func (l *loop) start(run func(ctx context.Context)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cancel != nil || l.stopped {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	l.cancel, l.done = cancel, make(chan struct{})
	go func() {
		defer close(l.done)
		run(ctx)
	}()
}

func (l *loop) stop() {
	l.mu.Lock()
	l.stopped = true
	cancel, done := l.cancel, l.done
	l.mu.Unlock()
	if cancel != nil {
		cancel()
		<-done
	}
}

// wallPause is a trader's pause on the wall clock: it blocks for d, or
// until ctx is cancelled or wake delivers (wake may be nil).
func wallPause(ctx context.Context, d time.Duration, wake <-chan struct{}) {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-wake:
	case <-ctx.Done():
	}
}

// newJitter seeds a delay source from an ID, so jitter streams differ
// per member but reproduce across runs (the cell simulation's
// determinism contract). Each loop draws from its own, so none needs a
// lock.
func newJitter(id string) *rand.Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(id))
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// upTo draws a delay in [0, max].
func upTo(rng *rand.Rand, max time.Duration) time.Duration {
	return time.Duration(rng.Int63n(int64(max) + 1))
}
