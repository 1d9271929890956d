package trader

// The vote protocol of automatic failover: what a member answers when a
// candidate asks to lead (RequestVote), and the per-epoch vote lock that
// makes a majority exclusive. The loop that detects a dead leader and
// stands for election is the Cell's monitor, in cell.go.
//
// Vote pledges are durable when a vote ledger is attached (SetVoteLog):
// the (epoch, candidate) pair is fsynced into a per-node journal before
// the grant leaves this node, and replayed on restart — so a
// voter that restarts inside one election round re-adopts its pledge
// instead of handing a second vote to a rival at the same epoch.
// Without a ledger the pledge is memory-only (in-process tests), and
// the journalled epochs alone still fence restarted *leaders*.

import (
	"context"
	"strconv"
	"strings"
)

// Vote is one member's reply to a RequestVote exchange. Granted aside,
// it carries the responder's own view — role, epoch, applied position,
// leader hint — which candidates use to find a live leader or a higher
// epoch they did not know about.
type Vote struct {
	Granted bool
	Role    string
	Epoch   uint64
	Applied uint64
	Leader  string
	// VoteEpoch is the highest epoch the responder's vote is pledged
	// at. A losing candidate adopts the round's maximum so its next
	// candidacy leaps past every observed pledge in one step, instead
	// of chasing an inflated rival lock one epoch per round.
	VoteEpoch uint64
}

// RequestVote serves one vote request: candidateID asks to lead at
// newEpoch, its log ending at applied with a tail from the leader of
// tailEpoch (logEnd). The reply always carries this member's own view;
// Granted is true only when every fencing rule passes.
func (t *Trader) RequestVote(ctx context.Context, candidateID string, newEpoch, applied, tailEpoch uint64) (Vote, error) {
	tail, seq := t.logEnd()
	v := Vote{Role: t.Role(), Epoch: t.Epoch(), Applied: seq, Leader: t.LeaderHint()}
	var deny string
	switch {
	case v.Role == RoleLeader && !t.journalFailed():
		// A live healthy leader denies: the candidate learns we exist
		// (and at what epoch) from the reply and stands down.
		deny = "live_leader"
	case newEpoch <= v.Epoch:
		// Stale candidacy: the group already moved past that epoch.
		deny = "stale_epoch"
	case tailEpoch < tail || tailEpoch == tail && applied < seq:
		// Most-advanced log wins (see logEnd): granting would let a
		// candidate missing acknowledged records take over and lose them.
		deny = "behind_applied"
	case t.repl.pullHealthy(t.now()):
		// Our own pulls from the leader succeeded within the veto
		// window: the "dead" leader is probably just partitioned from
		// the candidate. Denying here stops a flapping minority link
		// from deposing a healthy leader.
		deny = "healthy_leader_link"
	default:
		// Vote lock: this epoch's vote may already have gone to someone
		// else — or the durable pledge could not be persisted (fail-safe:
		// denying an extra vote never violates quorum safety).
		ok, err := t.repl.tryVote(candidateID, newEpoch)
		t.logVotePersist(ctx, newEpoch, err)
		if v.Granted = ok; ok {
			t.repl.raiseFence(newEpoch)
		} else {
			deny = "vote_locked"
		}
	}
	v.VoteEpoch = t.repl.pledged()
	if v.Granted {
		t.event("vote_granted", "candidate", candidateID, "epoch", strconv.FormatUint(newEpoch, 10))
	} else {
		t.event("vote_denied", "candidate", candidateID, "epoch", strconv.FormatUint(newEpoch, 10), "reason", deny)
	}
	t.log.Log(ctx, "election_vote", "candidate", candidateID, "epoch", newEpoch, "granted", v.Granted, "deny", deny)
	return v, nil
}

// adoptVoteEpoch raises this node's vote pledge to e (clearing the
// pledged candidate, since no vote was actually granted at e). A
// candidate calls it with the maximum VoteEpoch seen in a lost round.
// The raise is persisted best-effort — the ledger's error is returned
// for the log: losing it to a crash only costs one re-fought round, it
// cannot double a vote.
func (r *replState) adoptVoteEpoch(e uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e <= r.voteEpoch {
		return nil
	}
	r.voteEpoch, r.votedFor = e, ""
	return r.votes.pledge(e, "")
}

// tryVote takes the per-epoch vote lock: true when candidateID holds
// this trader's vote for epoch e (idempotent for the same candidate).
// With a vote ledger attached the pledge is persisted before the lock
// is considered taken; a persist failure denies the vote (fail-safe)
// and is returned.
func (r *replState) tryVote(candidateID string, e uint64) (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e < r.voteEpoch || e == r.voteEpoch && r.votedFor != "" && r.votedFor != candidateID {
		return false, nil
	}
	if e != r.voteEpoch || r.votedFor != candidateID {
		if err := r.votes.pledge(e, candidateID); err != nil {
			return false, err
		}
	}
	r.voteEpoch, r.votedFor = e, candidateID
	return true, nil
}

// pledged reports the highest epoch this node's vote is pledged at.
func (r *replState) pledged() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.voteEpoch
}

// electionTarget picks the epoch to stand for: past both the current
// fencing epoch and any epoch this node's vote is already pledged at.
// Standing again at a pledged epoch would deadlock rival candidacies —
// every vote lock held, no quorum ever assembled — so each fresh
// candidacy moves to a fresh epoch, exactly as Raft mints a fresh term.
func (r *replState) electionTarget() uint64 {
	return max(r.epoch.Load(), r.pledged()) + 1
}

// logVotePersist logs a pledge the vote ledger could not persist.
func (t *Trader) logVotePersist(ctx context.Context, epoch uint64, err error) {
	if err != nil {
		t.log.Log(ctx, "vote_persist_failed", "epoch", epoch, "err", err.Error())
	}
}

// logEnd is where this member's log ends, as votes compare logs —
// Raft's (last term, last index): the epoch of the leader its journal
// tail came from (srcEpoch), then the tail's sequence number. A longer
// tail from an older epoch, whose records a later leader may never have
// had, ranks below the later leader's log. The tail is the journal's
// (the applied pull position without one): a member resyncing from a
// snapshot still holds, and votes on, its records until the install
// rewinds them.
func (t *Trader) logEnd() (tailEpoch, seq uint64) {
	seq = t.repl.applied.Load()
	if t.journal != nil {
		seq = t.journal.Stats().LastSeq
	}
	return t.repl.srcEpoch.Load(), seq
}

// journalFailed reports whether the attached journal latched fail-stop.
func (t *Trader) journalFailed() bool {
	return t.journal != nil && t.journal.Failed() != nil
}

// LeaderHintFromError extracts the leader ref from a not-leader
// rejection — "trader: not leader (leader at cosm://…)" — whether the
// error is the local ErrNotLeader or its text after crossing the wire
// as an application error.
func LeaderHintFromError(err error) (string, bool) {
	if err == nil {
		return "", false
	}
	s := err.Error()
	i := strings.Index(s, "leader at ")
	if i < 0 {
		return "", false
	}
	s = s[i+len("leader at "):]
	if j := strings.IndexByte(s, ')'); j >= 0 {
		s = s[:j]
	}
	s = strings.TrimSpace(s)
	if s == "" {
		return "", false
	}
	return s, true
}
