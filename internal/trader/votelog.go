package trader

// Durable vote ledger: a per-node journal recording every election vote
// pledge this node makes, so a voter that crashes and restarts inside
// one election round cannot grant two votes at the same epoch.
//
// The ledger is deliberately NOT part of the replicated journal. The
// journal's sequence space is owned by the leader — followers mirror
// leader-assigned seqs via ApplyBatch/CommitAt — so a follower
// appending a local vote record would collide with the next replicated
// record, and a leader's vote record would replicate and overwrite
// every follower's *own* vote state. Votes are per-node facts, not
// market state; they live next to the journal, not inside it.
//
// It is a journal of its own in <data-dir>/votes, so it inherits the
// journal's framing: one CRC-checked record — the market journal's
// Record_t, Op "vote", Epoch, Name = candidate ("" for a bare epoch
// adoption) — per pledge, fsynced before
// the grant leaves this node, never compacted — a vote round is rare
// and slow, one fsync per pledge is noise. Open seals a torn tail (a
// crash mid-append, whose pledge was never acknowledged to anyone), so
// the next pledge lands on a clean frame boundary.

import (
	"fmt"
	"os"
	"path/filepath"

	"cosm/internal/journal"
	"cosm/internal/xcode"
)

// VoteLog is the durable per-node vote ledger. Appends are serialised
// under the trader's repl lock.
type VoteLog struct {
	j *journal.Journal

	// epoch and candidate are the highest pledge recovered at open,
	// which SetVoteLog adopts into the vote lock.
	epoch     uint64
	candidate string
}

// OpenVoteLog opens (creating if absent) the vote ledger in dir/votes,
// reading the pledges a previous incarnation recorded. A ledger in the
// line format of earlier versions (dir/votes.wal) is refused rather than
// ignored: its pledges would be lost.
func OpenVoteLog(dir string) (*VoteLog, error) {
	legacy := filepath.Join(dir, "votes.wal")
	if _, err := os.Stat(legacy); err == nil {
		return nil, fmt.Errorf("trader: vote log: %s is a legacy ledger this version does not read; remove it once no election is in flight", legacy)
	}
	j, err := journal.Open(filepath.Join(dir, "votes"), journal.Options{Fsync: journal.FsyncAlways})
	if err != nil {
		return nil, fmt.Errorf("trader: vote log: %w", err)
	}
	l := &VoteLog{j: j}
	err = j.Replay(func(seq uint64, payload []byte) error {
		var r walRecord
		if err := xcode.DecodeInto(journalTypes().record, payload, &r); err != nil || r.Op != opVote {
			return fmt.Errorf("trader: vote log record %d is not a vote pledge", seq)
		}
		raisePledge(&l.epoch, &l.candidate, r.Epoch, r.Name)
		return nil
	})
	if err == nil {
		err = j.Start(nil)
	}
	if err != nil {
		j.Close()
		return nil, err
	}
	return l, nil
}

// raisePledge moves a vote lock to the pledge (e, candidate) when it is
// higher: a later epoch, or a granted vote at the adopted epoch.
func raisePledge(epoch *uint64, votedFor *string, e uint64, candidate string) {
	if e > *epoch || e == *epoch && candidate != "" {
		*epoch, *votedFor = e, candidate
	}
}

// pledge durably records one pledge before it returns, so a grant built
// on it survives a crash. A nil ledger records nothing.
func (l *VoteLog) pledge(epoch uint64, candidate string) error {
	if l == nil {
		return nil
	}
	payload, err := xcode.AppendEncode(nil, journalTypes().record, walRecord{Op: opVote, Epoch: epoch, Name: candidate})
	if err == nil {
		_, err = l.j.Append(payload)
	}
	if err != nil {
		return fmt.Errorf("trader: vote log: %w", err)
	}
	return nil
}

// Close closes the ledger.
func (l *VoteLog) Close() error {
	if l == nil {
		return nil
	}
	return l.j.Close()
}

// SetVoteLog attaches an opened vote ledger: the recovered pledge is
// re-adopted into the vote lock (the candidate is kept so a restarted
// voter answers the same candidate's retry idempotently), a vote fences
// the epochs below it again as a granted one did (RequestVote), and
// future pledges persist through it. Call before serving, after
// recovery.
func (t *Trader) SetVoteLog(l *VoteLog) {
	t.repl.mu.Lock()
	defer t.repl.mu.Unlock()
	t.repl.votes = l
	if l != nil {
		raisePledge(&t.repl.voteEpoch, &t.repl.votedFor, l.epoch, l.candidate)
		if l.candidate != "" {
			t.repl.raiseFence(l.epoch)
		}
	}
}
