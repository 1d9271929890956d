package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/trader"
	"cosm/internal/wire"
)

// TestMain doubles as the crash-test daemon: when the parent test
// re-executes this binary with TRADERD_CRASH_DATADIR set, it runs a
// journaled traderd instead of the test suite and blocks until killed.
// TRADERD_CRASH_ARGS appends extra (space-separated) daemon flags —
// the replicated-failover e2e uses it for -follow/-id/-repl-sync, and
// a later -id overrides the default.
func TestMain(m *testing.M) {
	if dir := os.Getenv("TRADERD_CRASH_DATADIR"); dir != "" {
		log.SetPrefix("traderd: ")
		args := []string{
			"-listen", "tcp:127.0.0.1:0",
			"-id", "crash-test",
			"-data-dir", dir,
			"-fsync", "always",
		}
		args = append(args, strings.Fields(os.Getenv("TRADERD_CRASH_ARGS"))...)
		sig := make(chan os.Signal) // no graceful path: the parent kills -9
		if err := run(args, sig); err != nil {
			log.Fatal(err)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// startCrashDaemon launches the journaled daemon subprocess and returns
// once it has announced its serving endpoint on stderr. extra flags are
// appended after the defaults (a later -id wins).
func startCrashDaemon(t *testing.T, dataDir string, extra ...string) (*exec.Cmd, ref.ServiceRef) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run=TestMain")
	cmd.Env = append(os.Environ(),
		"TRADERD_CRASH_DATADIR="+dataDir,
		"TRADERD_CRASH_ARGS="+strings.Join(extra, " "))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	serving := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "serving at "); i >= 0 {
				select {
				case serving <- strings.TrimSpace(line[i+len("serving at "):]):
				default:
				}
			}
		}
	}()
	select {
	case s := <-serving:
		r, err := ref.Parse(s)
		if err != nil {
			_ = cmd.Process.Kill()
			t.Fatalf("bad serving ref %q: %v", s, err)
		}
		return cmd, r
	case <-time.After(15 * time.Second):
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		t.Fatal("daemon never announced its endpoint")
		return nil, ref.ServiceRef{}
	}
}

func crashProps(model string, charge float64) []sidl.Property {
	return []sidl.Property{
		{Name: "CarModel", Value: sidl.EnumLit(model)},
		{Name: "AverageMilage", Value: sidl.IntLit(38000)},
		{Name: "ChargePerDay", Value: sidl.FloatLit(charge)},
		{Name: "ChargeCurrency", Value: sidl.EnumLit("USD")},
	}
}

// TestCrashRecoveryKillDashNine is the acceptance e2e: load a journaled
// traderd over the wire, SIGKILL it mid-life, restart it on the same
// data directory, and require an identical import to return
// byte-identical offers.
func TestCrashRecoveryKillDashNine(t *testing.T) {
	dataDir := t.TempDir()
	cmd1, r1 := startCrashDaemon(t, dataDir)
	killed := false
	defer func() {
		if !killed {
			_ = cmd1.Process.Kill()
			_ = cmd1.Wait()
		}
	}()

	pool := wire.NewPool()
	defer pool.Close()
	ctx := context.Background()
	tc := dialUp(t, pool, r1)

	if err := tc.DefineTypeFromSID(ctx, sidl.CarRentalSID()); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 10; i++ {
		id, err := tc.Export(ctx, "CarRentalService",
			ref.New(fmt.Sprintf("tcp:10.1.0.%d:7000", i), "CarRentalService"),
			crashProps("FIAT_Uno", float64(40+i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := tc.Withdraw(ctx, ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := tc.Replace(ctx, ids[1], crashProps("VW_Golf", 199)); err != nil {
		t.Fatal(err)
	}
	before, err := tc.Import(ctx, trader.NewImport("CarRentalService"))
	if err != nil {
		t.Fatal(err)
	}
	beforeJSON, err := json.Marshal(before)
	if err != nil {
		t.Fatal(err)
	}

	// kill -9: no drain, no sync, no goodbye.
	if err := cmd1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd1.Wait()
	killed = true

	cmd2, r2 := startCrashDaemon(t, dataDir)
	defer func() {
		_ = cmd2.Process.Kill()
		_ = cmd2.Wait()
	}()
	tc2 := dialUp(t, pool, r2)

	after, err := tc2.Import(ctx, trader.NewImport("CarRentalService"))
	if err != nil {
		t.Fatal(err)
	}
	afterJSON, err := json.Marshal(after)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(afterJSON, beforeJSON) {
		t.Fatalf("import differs after crash recovery:\n got %s\nwant %s", afterJSON, beforeJSON)
	}

	// The market stays open: a fresh export on the recovered trader must
	// get a never-before-seen ID.
	newID, err := tc2.Export(ctx, "CarRentalService",
		ref.New("tcp:10.1.0.99:7000", "CarRentalService"), crashProps("AUDI", 150))
	if err != nil {
		t.Fatal(err)
	}
	for _, old := range ids {
		if newID == old {
			t.Fatalf("post-recovery export reused ID %q", newID)
		}
	}
}
