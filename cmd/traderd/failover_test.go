package main

import (
	"context"
	"errors"
	"fmt"
	"os/exec"
	"strings"
	"testing"
	"time"

	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/trader"
	"cosm/internal/wire"
)

// TestReplicatedFailoverKillDashNine is the HA acceptance e2e: a
// 3-node replicated trader (leader with synchronous replication plus
// two follower read replicas), the leader SIGKILLed mid-load, the
// most-advanced follower promoted — and every acknowledged export must
// survive, while the deposed leader's late writes are fenced.
func TestReplicatedFailoverKillDashNine(t *testing.T) {
	if testing.Short() {
		t.Skip("3 daemon subprocesses")
	}
	leaderDir := t.TempDir()
	leaderCmd, leaderRef := startCrashDaemon(t, leaderDir, "-repl-sync", "1")
	leaderKilled := false
	defer func() {
		if !leaderKilled {
			_ = leaderCmd.Process.Kill()
			_ = leaderCmd.Wait()
		}
	}()

	type replica struct {
		cmd *exec.Cmd
		ref ref.ServiceRef
	}
	var followers []replica
	for i := 1; i <= 2; i++ {
		cmd, r := startCrashDaemon(t, t.TempDir(),
			"-id", fmt.Sprintf("f%d", i), "-follow", leaderRef.String())
		defer func() {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}()
		followers = append(followers, replica{cmd, r})
	}

	pool := wire.NewPool()
	defer pool.Close()
	ctx := context.Background()
	tl := dialUp(t, pool, leaderRef)

	// Load: every export below returns only after a follower pulled its
	// journal record (-repl-sync 1), so all of them are *acknowledged*.
	if err := tl.DefineTypeFromSID(ctx, sidl.CarRentalSID()); err != nil {
		t.Fatal(err)
	}
	const acked = 25
	for i := 0; i < acked; i++ {
		if _, err := tl.Export(ctx, "CarRentalService",
			ref.New(fmt.Sprintf("tcp:10.2.0.%d:7000", i), "CarRentalService"),
			crashProps("FIAT_Uno", float64(40+i))); err != nil {
			t.Fatal(err)
		}
	}

	// Read replicas serve imports locally and refuse mutations with the
	// leader's address in the error.
	tf := dialUp(t, pool, followers[0].ref)
	waitForOffers(t, tf, acked)
	if _, err := tf.Export(ctx, "CarRentalService",
		ref.New("tcp:10.2.0.99:7000", "CarRentalService"), crashProps("AUDI", 1)); err == nil {
		t.Fatal("follower accepted an export")
	}

	// kill -9 the leader mid-life.
	if err := leaderCmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = leaderCmd.Wait()
	leaderKilled = true

	// Promote the most-advanced follower: followers apply strict log
	// prefixes, so the max-applied one holds every acknowledged record.
	best, bestApplied := -1, uint64(0)
	for i, f := range followers {
		fc := dialUp(t, pool, f.ref)
		st, err := fc.ReplStatus(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Role != trader.RoleFollower {
			t.Fatalf("follower %d role = %q", i, st.Role)
		}
		if best < 0 || st.Applied > bestApplied {
			best, bestApplied = i, st.Applied
		}
	}
	tp := dialUp(t, pool, followers[best].ref)
	if err := tp.Promote(ctx, 1); err != nil {
		t.Fatal(err)
	}
	st, err := tp.ReplStatus(ctx)
	if err != nil || st.Role != trader.RoleLeader || st.Epoch != 1 {
		t.Fatalf("promoted status = %+v, %v", st, err)
	}

	// Zero lost acknowledged exports.
	offers, err := tp.Import(ctx, trader.NewImport("CarRentalService"))
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != acked {
		t.Fatalf("promoted leader serves %d offers, want %d acknowledged", len(offers), acked)
	}

	// The market stays open on the new leader (asynchronous now — its
	// own followers would be re-pointed by the operator).
	if _, err := tp.Export(ctx, "CarRentalService",
		ref.New("tcp:10.2.1.1:7000", "CarRentalService"), crashProps("AUDI", 150)); err != nil {
		t.Fatal(err)
	}

	// Fencing: the deposed leader comes back on its old data dir still
	// believing it leads at epoch 0. One replication exchange carrying
	// epoch 1 demotes it, and its late writes are rejected.
	oldCmd, oldRef := startCrashDaemon(t, leaderDir)
	defer func() {
		_ = oldCmd.Process.Kill()
		_ = oldCmd.Wait()
	}()
	told := dialUp(t, pool, oldRef)
	if _, err := told.ReplPull(ctx, "probe", 1, 0, 1, 0); err == nil {
		t.Fatal("deposed leader accepted a pull at epoch 1")
	}
	_, err = told.Export(ctx, "CarRentalService",
		ref.New("tcp:10.2.1.2:7000", "CarRentalService"), crashProps("VW_Golf", 80))
	if err == nil {
		t.Fatal("deposed leader accepted a late export")
	}
	if !errors.Is(err, trader.ErrNotLeader) && !containsNotLeader(err) {
		t.Fatalf("late export error = %v, want not-leader rejection", err)
	}
}

// containsNotLeader matches the not-leader rejection after it has
// crossed the wire as an application error string.
func containsNotLeader(err error) bool {
	return err != nil && strings.Contains(err.Error(), "not leader")
}

// waitForOffers polls until the replica serves n offers locally.
func waitForOffers(t *testing.T, tc *trader.Client, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		offers, err := tc.Import(context.Background(), trader.NewImport("CarRentalService"))
		if err == nil && len(offers) >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never reached %d offers (last: %d, %v)", n, len(offers), err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
