package trader

// The vote protocol of automatic failover: what a member answers when a
// candidate asks to lead (RequestVote), and the per-epoch vote lock that
// makes a majority exclusive. The loop that detects a dead leader and
// stands for election is the Cell's monitor, in cell.go.
//
// Vote pledges are durable when a vote ledger is attached (SetVoteLog):
// the (epoch, candidate) pair is fsynced into a per-node sidecar file
// before the grant leaves this node, and replayed on restart — so a
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
// newEpoch with the given applied position. The reply always carries
// this member's own view; Granted is true only when every fencing rule
// passes.
func (t *Trader) RequestVote(ctx context.Context, candidateID string, newEpoch, applied uint64) (Vote, error) {
	v := Vote{Role: t.Role(), Epoch: t.Epoch(), Applied: t.electionApplied(), Leader: t.LeaderHint()}
	var deny string
	switch {
	case v.Role == RoleLeader && !t.journalFailed():
		// A live healthy leader denies: the candidate learns we exist
		// (and at what epoch) from the reply and stands down.
		deny = "live_leader"
	case newEpoch <= v.Epoch:
		// Stale candidacy: the group already moved past that epoch.
		deny = "stale_epoch"
	case applied < v.Applied:
		// Max-applied wins: granting would let a candidate missing
		// acknowledged records take over and lose them.
		deny = "behind_applied"
	case t.repl.pullHealthy(t.now()):
		// Our own pulls from the leader succeeded within the veto
		// window: the "dead" leader is probably just partitioned from
		// the candidate. Denying here stops a flapping minority link
		// from deposing a healthy leader.
		deny = "healthy_leader_link"
	case !t.tryVote(candidateID, newEpoch):
		// Vote lock: this epoch's vote already went to someone else —
		// or the durable pledge could not be persisted (fail-safe:
		// denying an extra vote never violates quorum safety).
		deny = "vote_locked"
	default:
		v.Granted = true
	}
	t.repl.mu.Lock()
	v.VoteEpoch = t.repl.voteEpoch
	t.repl.mu.Unlock()
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
// The raise is persisted best-effort: losing it to a crash only costs
// one re-fought round, it cannot double a vote.
func (t *Trader) adoptVoteEpoch(e uint64) {
	t.repl.mu.Lock()
	if e > t.repl.voteEpoch {
		t.repl.voteEpoch, t.repl.votedFor = e, ""
		if t.votes != nil {
			if err := t.votes.Append(e, ""); err != nil {
				t.log.Log(nil, "vote_persist_failed", "epoch", e, "err", err.Error())
			}
		}
	}
	t.repl.mu.Unlock()
}

// tryVote takes the per-epoch vote lock: true when candidateID holds
// this trader's vote for epoch e (idempotent for the same candidate).
// With a vote ledger attached the pledge is fsynced before the lock is
// considered taken; a persist failure denies the vote (fail-safe).
func (t *Trader) tryVote(candidateID string, e uint64) bool {
	t.repl.mu.Lock()
	defer t.repl.mu.Unlock()
	if e < t.repl.voteEpoch {
		return false
	}
	if e == t.repl.voteEpoch && t.repl.votedFor != "" && t.repl.votedFor != candidateID {
		return false
	}
	if t.votes != nil && (e != t.repl.voteEpoch || t.repl.votedFor != candidateID) {
		if err := t.votes.Append(e, candidateID); err != nil {
			t.log.Log(nil, "vote_persist_failed", "epoch", e, "candidate", candidateID, "err", err.Error())
			return false
		}
	}
	t.repl.voteEpoch, t.repl.votedFor = e, candidateID
	return true
}

// electionTarget picks the epoch to stand for: past both the current
// fencing epoch and any epoch this node's vote is already pledged at.
// Standing again at a pledged epoch would deadlock rival candidacies —
// every vote lock held, no quorum ever assembled — so each fresh
// candidacy moves to a fresh epoch, exactly as Raft mints a fresh term.
func (t *Trader) electionTarget() uint64 {
	target := t.repl.epoch.Load() + 1
	t.repl.mu.Lock()
	if t.repl.voteEpoch >= target {
		target = t.repl.voteEpoch + 1
	}
	t.repl.mu.Unlock()
	return target
}

// electionApplied is the position votes compare: the applied pull
// position on a follower, the journal tail on a leader.
func (t *Trader) electionApplied() uint64 {
	if !t.repl.isFollower() && t.journal != nil {
		return t.journal.Stats().LastSeq
	}
	return t.repl.applied.Load()
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
