package trader

import (
	"context"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"cosm/internal/typemgr"
)

// openVoter boots a follower over the vote ledger in dir, as a restart
// would.
func openVoter(t *testing.T, dir string) (*Trader, *VoteLog) {
	t.Helper()
	tr := New("V", typemgr.NewRepo())
	tr.SetFollower("cosm://leader")
	vl, err := OpenVoteLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	tr.SetVoteLog(vl)
	return tr, vl
}

func granted(tr *Trader, candidate string, epoch uint64) bool {
	v, _ := tr.RequestVote(context.Background(), candidate, epoch, 0, 0)
	return v.Granted
}

// TestVoteLogSurvivesRestart closes the double-vote window: a voter
// that granted a vote, crashed, and restarted within the same election
// round must deny a rival at the same epoch.
func TestVoteLogSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	v1, vl := openVoter(t, dir)
	if !granted(v1, "X", 3) {
		t.Fatal("fresh voter denied X")
	}
	vl.Close() // crash

	v2, vl2 := openVoter(t, dir)
	defer vl2.Close()
	if granted(v2, "Y", 3) {
		t.Fatal("restarted voter handed epoch 3's vote to rival Y")
	}
	if got := v2.repl.pledged(); got != 3 {
		t.Fatalf("recovered pledge epoch = %d, want 3", got)
	}
	// The original candidate's retry stays granted (idempotent pledge).
	if !granted(v2, "X", 3) {
		t.Fatal("restarted voter denied the candidate it already pledged to")
	}
	// A higher epoch re-opens the lock as before.
	if !granted(v2, "Y", 4) {
		t.Fatal("fresh epoch must accept a new candidate after restart")
	}
}

// TestVoteLogToleratesTornTail: a crash mid-append leaves half a record
// behind. The restart must drop it — the pledge it held was never
// acknowledged — and must keep the pledge written after it across the
// next restart too: a ledger that appended onto the fragment would lose
// it there, reopening the double-vote window.
func TestVoteLogToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	v1, vl := openVoter(t, dir)
	if !granted(v1, "X", 5) {
		t.Fatal("fresh voter denied X")
	}
	vl.Close()
	var ledger []string
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			ledger = append(ledger, path)
		}
		return err
	})
	if len(ledger) != 1 {
		t.Fatalf("ledger files %v, want one", ledger)
	}
	f, err := os.OpenFile(ledger[0], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"vote","epo`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	v2, vl2 := openVoter(t, dir)
	if granted(v2, "Y", 5) {
		t.Fatal("the pledge before the torn tail was lost")
	}
	if !granted(v2, "Y", 7) {
		t.Fatal("fresh epoch must accept a new candidate")
	}
	vl2.Close()

	v3, vl3 := openVoter(t, dir)
	defer vl3.Close()
	if granted(v3, "Z", 7) {
		t.Fatal("the pledge written after a torn tail was lost: epoch 7's vote went to Y and Z")
	}
}

// TestVoteLogPersistFailureDenies: a voter whose ledger cannot persist
// the pledge refuses the vote (fail-safe) instead of granting on
// memory alone.
func TestVoteLogPersistFailureDenies(t *testing.T) {
	tr, vl := openVoter(t, t.TempDir())
	vl.j.Close() // a dead disk under the ledger
	if granted(tr, "X", 2) {
		t.Fatal("vote granted without a durable pledge")
	}
}

// TestVoteLogRefusesLegacyLedger: a data dir still holding the line
// format of earlier versions fails loudly instead of starting with its
// pledges forgotten.
func TestVoteLogRefusesLegacyLedger(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "votes.wal"), []byte(`{"op":"vote","name":"X","epoch":5}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if vl, err := OpenVoteLog(dir); err == nil {
		vl.Close()
		t.Fatal("a legacy votes.wal was silently ignored")
	}
}
