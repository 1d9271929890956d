package main

import (
	"context"
	"fmt"
	"net"
	"os/exec"
	"testing"
	"time"

	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/trader"
	"cosm/internal/wire"
)

// freeRefs reserves n distinct listen ports and returns the matching
// endpoint / trader-ref pairs. The listeners are closed just before
// returning, so a daemon started promptly can claim its port; -cluster
// needs every member's address before any member is up, which rules out
// the usual dynamic :0 allocation.
func freeRefs(t *testing.T, n int) ([]string, []ref.ServiceRef) {
	t.Helper()
	listeners := make([]net.Listener, n)
	endpoints := make([]string, n)
	refs := make([]ref.ServiceRef, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
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

// waitForStatus polls a node until its replication status satisfies ok.
func waitForStatus(t *testing.T, tc *trader.Client, deadline time.Duration, ok func(trader.ReplStatus) bool) trader.ReplStatus {
	t.Helper()
	end := time.Now().Add(deadline)
	var st trader.ReplStatus
	var err error
	for time.Now().Before(end) {
		st, err = tc.ReplStatus(context.Background())
		if err == nil && ok(st) {
			return st
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("node never reached the wanted status (last: %+v, %v)", st, err)
	return trader.ReplStatus{}
}

// TestAutoFailoverElectsAndRejoins is the self-healing HA e2e: a
// 3-node cluster with -auto-failover, the leader SIGKILLed mid-load.
// The cluster must elect a replacement on its own with zero lost
// acknowledged exports; the restarted old leader must discover it was
// deposed and rejoin as a follower; and a client still bound to the
// deposed node must reach the new leader through the hint redirect.
func TestAutoFailoverElectsAndRejoins(t *testing.T) {
	if testing.Short() {
		t.Skip("3 daemon subprocesses")
	}
	endpoints, refs := freeRefs(t, 3)
	clusterArgs := func(self int) []string {
		var args []string
		for i := range refs {
			if i != self {
				args = append(args, "-cluster", refs[i].String())
			}
		}
		return args
	}
	start := func(i int, dir string, extra ...string) *exec.Cmd {
		args := append([]string{
			"-listen", endpoints[i],
			"-id", fmt.Sprintf("n%d", i),
			"-auto-failover",
			"-election-timeout", "500ms",
		}, clusterArgs(i)...)
		args = append(args, extra...)
		cmd, _ := startCrashDaemon(t, dir, args...)
		return cmd
	}

	leaderDir := t.TempDir()
	leaderCmd := start(0, leaderDir, "-repl-sync", "1")
	leaderKilled := false
	defer func() {
		if !leaderKilled {
			_ = leaderCmd.Process.Kill()
			_ = leaderCmd.Wait()
		}
	}()
	for i := 1; i <= 2; i++ {
		cmd := start(i, t.TempDir(), "-follow", refs[0].String())
		defer func() {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}()
	}

	pool := wire.NewPool()
	defer pool.Close()
	ctx := context.Background()
	tl := dialUp(t, pool, refs[0])

	// Acknowledged load: -repl-sync 1 returns each export only after a
	// follower pulled its record.
	if err := tl.DefineTypeFromSID(ctx, sidl.CarRentalSID()); err != nil {
		t.Fatal(err)
	}
	const acked = 20
	for i := 0; i < acked; i++ {
		if _, err := tl.Export(ctx, "CarRentalService",
			ref.New(fmt.Sprintf("tcp:10.3.0.%d:7000", i), "CarRentalService"),
			crashProps("FIAT_Uno", float64(40+i))); err != nil {
			t.Fatal(err)
		}
	}

	// kill -9 the leader. Nobody promotes by hand below this line.
	if err := leaderCmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = leaderCmd.Wait()
	leaderKilled = true

	// The survivors must detect the death and elect among themselves.
	winner := -1
	var winnerStatus trader.ReplStatus
	end := time.Now().Add(30 * time.Second)
	for winner < 0 && time.Now().Before(end) {
		for i := 1; i <= 2; i++ {
			tc := dialUp(t, pool, refs[i])
			if st, err := tc.ReplStatus(ctx); err == nil && st.Role == trader.RoleLeader {
				winner, winnerStatus = i, st
				break
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	if winner < 0 {
		t.Fatal("no follower auto-promoted after the leader died")
	}
	if winnerStatus.Epoch == 0 {
		t.Fatalf("winner's epoch = 0, promotion did not fence: %+v", winnerStatus)
	}

	// Zero lost acknowledged exports on the elected leader.
	tw := dialUp(t, pool, refs[winner])
	offers, err := tw.Import(ctx, trader.NewImport("CarRentalService"))
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != acked {
		t.Fatalf("elected leader serves %d offers, want %d acknowledged", len(offers), acked)
	}

	// The restarted old leader must discover the higher epoch and
	// demote-rejoin as a follower of the winner, catching up fully.
	oldCmd := start(0, leaderDir)
	defer func() {
		_ = oldCmd.Process.Kill()
		_ = oldCmd.Wait()
	}()
	told := dialUp(t, pool, refs[0])
	waitForStatus(t, told, 30*time.Second, func(st trader.ReplStatus) bool {
		return st.Role == trader.RoleFollower && st.Epoch >= winnerStatus.Epoch
	})
	waitForOffers(t, told, acked)

	// A client still bound to the deposed node follows the leader hint.
	told.FollowLeaderHints(true)
	if _, err := told.Export(ctx, "CarRentalService",
		ref.New("tcp:10.3.1.1:7000", "CarRentalService"), crashProps("AUDI", 150)); err != nil {
		t.Fatalf("redirected export failed: %v", err)
	}
	// waitForOffers, not a one-shot import: the leader's import cache
	// (250ms TTL) may still hold the pre-export result.
	waitForOffers(t, tw, acked+1)
}
