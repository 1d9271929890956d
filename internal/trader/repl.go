package trader

// Trader replication: a leader streams its write-ahead journal to
// followers, who replay each record through the normal store API and
// so converge on the leader's exact matching state (same snapshots,
// same indexes, same caches). Followers serve imports locally — read
// replicas — and refuse mutations with a hint pointing at the leader.
//
// Failover is fenced: a follower is promoted — by an operator, or
// automatically by the quorum-fenced election in election.go — with an
// epoch strictly greater than any the group has seen. The epoch is
// journalled, so it survives restarts, and every replication exchange
// carries it — a deposed leader's batches and a stale promotion are
// both rejected by comparing epochs. Combined with synchronous
// replication (WithReplSync), promoting the most-advanced follower
// preserves every acknowledged mutation.
//
// The stream itself is pull-based: a follower asks for records after
// its last applied sequence number (ReplPull on the wire, PullBatch
// here; the loop that asks is the Cell's, in cell.go). A pull doubles as an acknowledgement — the leader counts a
// follower as having replicated seq once it asks for records after
// seq. When the follower has fallen behind the leader's compaction
// watermark, the leader ships a full state snapshot instead and the
// follower reinstalls it wholesale.

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cosm/internal/journal"
)

// ErrNotLeader rejects mutations sent to a follower. The error text on
// the wire carries the leader's ref so clients can re-bind.
var ErrNotLeader = errors.New("trader: not leader")

// Replication roles.
const (
	RoleLeader   = "leader"
	RoleFollower = "follower"
)

// replState carries a trader's replication role and bookkeeping. The
// zero value is a standalone leader at epoch 0.
type replState struct {
	follower   atomic.Bool
	leaderHint atomic.Value // string: where mutations should go instead
	epoch      atomic.Uint64
	applied    atomic.Uint64 // follower: last journal seq applied locally
	leaderSeq  atomic.Uint64 // follower: leader's log tail at last pull
	caughtUpAt atomic.Int64  // follower: UnixNano of last caught-up pull; 0 = behind

	// Follower acknowledgements (leader side, for WithReplSync).
	mu    sync.Mutex
	acks  map[string]uint64 // follower ID -> highest seq it has pulled past
	ackCh chan struct{}     // closed+reset when any ack advances

	syncN    int
	syncWait time.Duration

	// Election state (see election.go). voteEpoch/votedFor are the
	// per-epoch vote lock, guarded by mu: at most one candidate ever
	// holds this trader's vote for a given epoch, which is what makes a
	// majority quorum exclusive. votes, when attached via SetVoteLog,
	// persists every pledge before the lock is taken (votelog.go).
	// lastPullOK is the UnixNano of the last successful pull (the voter
	// health veto); voteHealthWindow > 0 enables that veto (JoinCell
	// arms it with the election timeout). rejoining marks a member
	// resyncing wholesale (resync): its next snapshot install may rewind
	// the local journal.
	voteEpoch        uint64
	votedFor         string
	votes            *VoteLog
	lastPullOK       atomic.Int64
	voteHealthWindow atomic.Int64 // nanoseconds
	rejoining        atomic.Bool

	// fence is the highest epoch this member granted a vote at: it takes
	// no replication from below it, and its pulls carry it, so an older
	// leader steps down on contact instead of collecting acknowledgements
	// for records the winner may lack.
	fence atomic.Uint64
	// srcEpoch is the epoch of the leader the follower's journal tail
	// came from. A leader of another epoch may hold another history past
	// a common prefix the follower cannot locate, so its first batch
	// sends the follower back to a snapshot.
	srcEpoch atomic.Uint64
}

// ReplBatch is one replication exchange from leader to follower:
// either a run of journal records after the follower's position, or —
// when the follower is behind the compaction watermark — a full state
// snapshot at SnapshotSeq. LastSeq is the leader's log tail, letting
// the follower measure its lag; Epoch fences the exchange.
type ReplBatch struct {
	Epoch       uint64
	LastSeq     uint64
	SnapshotSeq uint64
	Snapshot    []byte
	Records     []journal.Record
}

// ReplStatus describes a trader's position in its replication group.
type ReplStatus struct {
	Role    string
	Epoch   uint64
	LastSeq uint64 // local journal tail
	Applied uint64 // follower: last seq applied; leader: == LastSeq
	Leader  string // follower: the leader hint; leader: empty
}

// The methods below, fenced and the vote lock's (election.go) are all a
// Cell (cell.go) touches of the replication state: the role, the leader
// hint, the pull health that both the failure monitor and the voter's
// health veto read, the epoch a pull carries, and the candidate's vote.

func (r *replState) isFollower() bool { return r.follower.Load() }

// setLeaderHint re-points a follower at another leader; the role does
// not change (SetFollower is the call that demotes).
func (r *replState) setLeaderHint(leaderRef string) { r.leaderHint.Store(leaderRef) }

// armVeto enables the voter health veto: a vote is refused while this
// follower's own last good pull is younger than window.
func (r *replState) armVeto(window time.Duration) { r.voteHealthWindow.Store(int64(window)) }

// notePullOK records a successful pull (or a fresh leader link, which
// earns the same grace) at now.
func (r *replState) notePullOK(now time.Time) { r.lastPullOK.Store(now.UnixNano()) }

// startGrace is notePullOK for a member that has never pulled.
func (r *replState) startGrace(now time.Time) { r.lastPullOK.CompareAndSwap(0, now.UnixNano()) }

// sincePullOK reports how long ago the last good pull was; ever is false
// when there has been none.
func (r *replState) sincePullOK(now time.Time) (age time.Duration, ever bool) {
	last := r.lastPullOK.Load()
	return time.Duration(now.UnixNano() - last), last != 0
}

// pullHealthy reports whether this follower's own pulls succeeded
// within the vote health-veto window (never, while the veto is unarmed).
func (r *replState) pullHealthy(now time.Time) bool {
	w := time.Duration(r.voteHealthWindow.Load())
	if w <= 0 || !r.isFollower() {
		return false
	}
	age, ever := r.sincePullOK(now)
	return ever && age < w
}

// Role reports "leader" or "follower".
func (t *Trader) Role() string {
	if t.repl.isFollower() {
		return RoleFollower
	}
	return RoleLeader
}

// Epoch reports the current fencing epoch.
func (t *Trader) Epoch() uint64 { return t.repl.epoch.Load() }

// LeaderHint reports where mutations should go when this trader is a
// follower ("" when leading or unknown).
func (t *Trader) LeaderHint() string {
	if s, ok := t.repl.leaderHint.Load().(string); ok {
		return s
	}
	return ""
}

// ReplApplied reports the last journal sequence number applied via
// replication (the follower's pull position).
func (t *Trader) ReplApplied() uint64 { return t.repl.applied.Load() }

// SetFollower puts the trader in follower mode before serving: local
// mutations are rejected with leaderRef as the hint, imports are
// served from the replicated store.
func (t *Trader) SetFollower(leaderRef string) {
	t.repl.leaderHint.Store(leaderRef)
	t.repl.follower.Store(true)
}

// DemoteRejoin demotes this trader — typically a deposed leader that
// discovered a higher epoch in the cluster — to a follower of
// leaderRef and marks it for wholesale resynchronisation: the pull
// position resets to zero so the first pull bootstraps from the new
// leader's snapshot, and that install is allowed to rewind the local
// journal (a divergent tail this node acknowledged to no one must not
// survive the rejoin).
func (t *Trader) DemoteRejoin(leaderRef string) {
	t.resync()
	t.SetFollower(leaderRef)
	t.event(nil, "demote_rejoin", "leader", leaderRef, "epoch", strconv.FormatUint(t.Epoch(), 10))
}

// resync resets the pull position to zero, so the next pull bootstraps
// from the leader's snapshot, and lets that install rewind the journal.
func (t *Trader) resync() {
	t.repl.rejoining.Store(true)
	t.repl.applied.Store(0)
	t.repl.leaderSeq.Store(0)
	t.repl.caughtUpAt.Store(0)
}

// leaderCheck gates mutations: nil on a leader, ErrNotLeader (with the
// leader hint folded into the message) on a follower.
func (t *Trader) leaderCheck() error {
	if !t.repl.follower.Load() {
		return nil
	}
	if hint := t.LeaderHint(); hint != "" {
		return fmt.Errorf("%w (leader at %s)", ErrNotLeader, hint)
	}
	return ErrNotLeader
}

// raiseEpoch lifts the fencing epoch to at least e (it never lowers).
func (t *Trader) raiseEpoch(e uint64) { raise(&t.repl.epoch, e) }

// raiseFence lifts the vote fence to at least e.
func (r *replState) raiseFence(e uint64) { raise(&r.fence, e) }

// fenced is the epoch this member holds replication to: its own, or the
// highest it granted a vote at.
func (r *replState) fenced() uint64 { return max(r.epoch.Load(), r.fence.Load()) }

func raise(a *atomic.Uint64, e uint64) {
	for cur := a.Load(); cur < e && !a.CompareAndSwap(cur, e); cur = a.Load() {
	}
}

// Promote makes a follower the leader of its group at the given
// fencing epoch, which must be strictly greater than any epoch this
// trader has seen. The new epoch is committed first — its record, then
// the raise — so it survives a restart and replicates to the rest of
// the group, fencing the old leader out, and a snapshot whose watermark
// covers the record carries the epoch.
func (t *Trader) Promote(epoch uint64) error {
	if cur := t.repl.epoch.Load(); epoch <= cur {
		t.metrics.fencingRejections.Inc()
		return fmt.Errorf("trader: stale promotion epoch %d (current %d)", epoch, cur)
	}
	// No waitReplicated: it would deadlock here while the group's other
	// followers still point at the old leader.
	if err := t.record(func() *walRecord { return &walRecord{Op: opEpoch, Epoch: epoch} },
		func() error { t.raiseEpoch(epoch); return nil }, false); err != nil {
		return err
	}
	t.repl.srcEpoch.Store(epoch) // this leader's records extend its own log
	t.repl.mu.Lock()
	t.repl.acks = nil // acks vouch within one reign: a rewind reissues seqs
	t.repl.mu.Unlock()
	t.repl.follower.Store(false)
	t.repl.leaderHint.Store("")
	t.event(nil, "promote", "epoch", strconv.FormatUint(epoch, 10))
	return nil
}

// PullBatch serves one replication pull (the ReplPull endpoint): the
// follower identified by followerID, fenced at followerEpoch, wants up
// to max records after afterSeq and is willing to wait up to wait for
// new ones. The pull acknowledges afterSeq for synchronous
// replication.
func (t *Trader) PullBatch(ctx context.Context, followerID string, followerEpoch, afterSeq uint64, max int, wait time.Duration) (*ReplBatch, error) {
	if t.journal == nil {
		return nil, errors.New("trader: replication requires a journal")
	}
	if err := t.journal.Failed(); err != nil {
		// A fail-stopped journal cannot vouch for its own tail: stop
		// serving as a replication source, so followers' pulls fail,
		// suspicion trips, and a healthy replica is elected.
		return nil, fmt.Errorf("trader: replication source fail-stop: %w", err)
	}
	if err := t.leaderCheck(); err != nil {
		// A demoted node must not keep feeding followers its stale
		// journal: the rejection carries the leader hint, which the
		// pull loop follows to re-point itself at the real leader.
		return nil, err
	}
	if cur := t.repl.epoch.Load(); followerEpoch > cur {
		// Someone was promoted past us, or a follower voted past us: we
		// are deposed. Stop accepting mutations; the monitor finds the
		// winner, whose first batch resyncs us (srcEpoch).
		t.metrics.fencingRejections.Inc()
		t.repl.follower.Store(true)
		t.event(ctx, "deposed", "epoch", strconv.FormatUint(cur, 10),
			"seen_epoch", strconv.FormatUint(followerEpoch, 10))
		return nil, fmt.Errorf("trader: fenced: follower epoch %d past local %d", followerEpoch, cur)
	}
	t.noteFollower(followerID, afterSeq)

	if max <= 0 {
		max = 512
	}
	// Long-poll bounded by the caller's deadline (with margin to ship
	// an empty batch rather than time the RPC out).
	if dl, ok := ctx.Deadline(); ok {
		if budget := time.Until(dl) - 100*time.Millisecond; budget < wait {
			wait = budget
		}
	}
	if wait > 0 && t.journal.Stats().LastSeq <= afterSeq {
		t.journal.WaitFor(afterSeq, wait)
	}

	stats := t.journal.Stats()
	b := &ReplBatch{Epoch: t.repl.epoch.Load(), LastSeq: stats.LastSeq}
	recs, err := t.journal.ReadFrom(afterSeq, max)
	// A bootstrap pull (afterSeq 0) always ships a snapshot when there
	// is any history to ship: snapshots can carry boot-time state —
	// preloaded service types — that was never journalled as records,
	// and a deposed leader rejoining with a divergent journal tail can
	// only converge through a snapshot install (which rewinds it); its
	// local tail blocks record-by-record replay from seq 1.
	needSnap := errors.Is(err, journal.ErrCompacted) ||
		(err == nil && afterSeq == 0 && (stats.HasSnapshot || stats.LastSeq > 0))
	switch {
	case needSnap:
		// The follower is behind the compaction watermark: ship full
		// state, cut at exactly its watermark.
		snap, watermark, err := t.journal.Cut()
		if err != nil {
			return nil, err
		}
		b.Snapshot, b.SnapshotSeq = snap, watermark
	case err != nil:
		return nil, err
	default:
		b.Records = recs
		t.metrics.replRecords.With("sent").Add(uint64(len(recs)))
	}
	return b, nil
}

// ApplyBatch applies one replication batch on a follower, returning
// how many records it applied. Records are WAL-first: each is appended
// to the follower's own journal at the leader's sequence number before
// it is replayed, so a follower restart recovers to its pull position.
func (t *Trader) ApplyBatch(b *ReplBatch) (int, error) {
	if cur := t.repl.fenced(); b.Epoch < cur {
		t.metrics.fencingRejections.Inc()
		t.event(nil, "fencing_rejection", "batch_epoch", strconv.FormatUint(b.Epoch, 10),
			"epoch", strconv.FormatUint(cur, 10))
		return 0, fmt.Errorf("trader: fenced: batch epoch %d below local %d", b.Epoch, cur)
	}
	t.raiseEpoch(b.Epoch)
	if b.Epoch != t.repl.srcEpoch.Load() && t.repl.applied.Load() > 0 {
		// A leader of another epoch: take its snapshot, which may rewind
		// the journal, and not its records (see srcEpoch).
		t.resync()
		if b.Snapshot == nil {
			t.event(nil, "resync", "epoch", strconv.FormatUint(b.Epoch, 10))
			return 0, nil
		}
	}
	t.repl.srcEpoch.Store(b.Epoch)

	// The follower's own journal compacts too: the install and each
	// record are one write-ahead step with their effect (journal.Install,
	// journal.CommitAt), so a local snapshot never captures state
	// missing a record its watermark covers.
	n := 0
	if b.Snapshot != nil {
		// A rejoining deposed leader may hold a divergent unacked tail
		// past the shipped watermark; its log is replaced wholesale.
		// Everyone else only ever jumps forward.
		rejoin := t.repl.rejoining.Load()
		if err := t.journal.Install(b.Snapshot, b.SnapshotSeq, rejoin, func() error {
			t.clearState()
			if err := t.RestoreSnapshot(b.Snapshot); err != nil {
				return err
			}
			t.repl.applied.Store(b.SnapshotSeq)
			return nil
		}); err != nil {
			return 0, fmt.Errorf("trader: install snapshot: %w", err)
		}
		if rejoin {
			t.repl.rejoining.Store(false)
		}
		t.event(nil, "snapshot_install", "seq", strconv.FormatUint(b.SnapshotSeq, 10),
			"rejoin", strconv.FormatBool(rejoin))
	}
	for _, rec := range b.Records {
		if rec.Seq <= t.repl.applied.Load() {
			continue // duplicate delivery; records are idempotent anyway
		}
		if err := t.journal.CommitAt(rec.Seq, rec.Payload, func() error {
			if err := t.ReplayRecord(rec.Seq, rec.Payload); err != nil {
				return err
			}
			t.repl.applied.Store(rec.Seq)
			return nil
		}); err != nil {
			return n, err
		}
		n++
	}
	if n > 0 {
		t.metrics.replRecords.With("applied").Add(uint64(n))
	}
	t.repl.leaderSeq.Store(b.LastSeq)
	t.repl.notePullOK(t.now())
	if t.repl.applied.Load() >= b.LastSeq {
		t.repl.caughtUpAt.Store(t.now().UnixNano())
	}
	return n, nil
}

// Status reports the trader's replication position.
func (t *Trader) Status() ReplStatus {
	st := ReplStatus{Role: t.Role(), Epoch: t.Epoch(), Applied: t.repl.applied.Load(), Leader: t.LeaderHint(),
		LastSeq: t.journal.Stats().LastSeq}
	if st.Role == RoleLeader {
		st.Applied = st.LastSeq
		st.Leader = ""
	}
	return st
}

// noteFollower records that a follower has pulled past seq (leader
// side), waking any mutation blocked in waitReplicated.
func (t *Trader) noteFollower(id string, seq uint64) {
	t.repl.mu.Lock()
	defer t.repl.mu.Unlock()
	if t.repl.acks == nil {
		t.repl.acks = map[string]uint64{}
	}
	if seq > t.repl.acks[id] {
		t.repl.acks[id] = seq
		if t.repl.ackCh != nil {
			close(t.repl.ackCh)
			t.repl.ackCh = nil
		}
	}
}

// waitReplicated blocks until syncN followers have pulled past seq, or
// syncWait expires. No-op in asynchronous mode (syncN <= 0) and for
// seq 0, which no record carries (nothing was journalled). epoch is
// the fencing epoch the record was appended under: once it moved, this
// trader was deposed meanwhile — a rejoin may have rewound its journal
// and reissued seq to another record — so an ack for seq no longer
// vouches for this one, and the wait fails.
func (t *Trader) waitReplicated(seq, epoch uint64) error {
	n := t.repl.syncN
	if n <= 0 || seq == 0 {
		return nil
	}
	deadline := t.now().Add(t.repl.syncWait)
	for {
		if cur := t.Epoch(); cur != epoch {
			return fmt.Errorf("trader: replication: epoch moved %d -> %d before seq %d was acked", epoch, cur, seq)
		}
		t.repl.mu.Lock()
		cnt := 0
		for _, acked := range t.repl.acks {
			if acked >= seq {
				cnt++
			}
		}
		if cnt >= n {
			t.repl.mu.Unlock()
			return nil
		}
		if t.repl.ackCh == nil {
			t.repl.ackCh = make(chan struct{})
		}
		ch := t.repl.ackCh
		t.repl.mu.Unlock()
		left := deadline.Sub(t.now())
		if left <= 0 {
			return fmt.Errorf("trader: replication: %d/%d followers acked seq %d within %v", cnt, n, seq, t.repl.syncWait)
		}
		t.pause(context.Background(), left, ch)
	}
}

// replLagRecords reports how many leader records the follower still
// has to apply (0 on a leader).
func (t *Trader) replLagRecords() uint64 {
	if !t.repl.follower.Load() {
		return 0
	}
	leader, applied := t.repl.leaderSeq.Load(), t.repl.applied.Load()
	if leader <= applied {
		return 0
	}
	return leader - applied
}

// replLagSeconds reports how long the follower has been behind its
// leader (0 when caught up or leading).
func (t *Trader) replLagSeconds() float64 {
	if !t.repl.follower.Load() || t.replLagRecords() == 0 {
		return 0
	}
	at := t.repl.caughtUpAt.Load()
	if at == 0 {
		return 0 // never caught up yet: lag in records tells the story
	}
	return time.Duration(t.now().UnixNano() - at).Seconds()
}
