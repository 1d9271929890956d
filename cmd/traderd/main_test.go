package main

import (
	"context"
	"io"
	"log"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/trader"
	"cosm/internal/wire"
)

func writeCarSIDL(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "carrental.sidl")
	if err := os.WriteFile(path, []byte(sidl.CarRentalIDL), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func dialUp(t *testing.T, pool *wire.Pool, r ref.ServiceRef) *trader.Client {
	t.Helper()
	ctx := context.Background()
	deadline := time.Now().Add(5 * time.Second)
	for {
		tc, err := trader.DialTrader(ctx, pool, r)
		if err == nil {
			return tc
		}
		if time.Now().After(deadline) {
			t.Fatalf("trader never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestDaemonPreloadsTypesAndTrades(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)

	sig := make(chan os.Signal)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-listen", "loop:traderd-test",
			"-id", "test-trader",
			"-type", writeCarSIDL(t),
		}, sig)
	}()

	pool := wire.NewPool()
	defer pool.Close()
	tc := dialUp(t, pool, ref.New("loop:traderd-test", trader.ServiceName))
	ctx := context.Background()

	names, err := tc.TypeNames(ctx)
	if err != nil || len(names) != 1 || names[0] != "CarRentalService" {
		t.Fatalf("TypeNames = %v, %v", names, err)
	}
	target := ref.New("tcp:p:1", "CarRentalService")
	if _, err := tc.ExportSID(ctx, sidl.CarRentalSID(), target); err != nil {
		t.Fatal(err)
	}
	offer, err := trader.ImportOne(ctx, tc, trader.NewImport("CarRentalService"))
	if err != nil || offer.Ref != target {
		t.Fatalf("ImportOne = %+v, %v", offer, err)
	}

	close(sig)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestDaemonFederationViaLinkFlag(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)
	typeFile := writeCarSIDL(t)

	// Partner trader B holding the offer.
	sigB := make(chan os.Signal)
	doneB := make(chan error, 1)
	go func() {
		doneB <- run([]string{"-listen", "loop:traderd-b", "-id", "B", "-type", typeFile}, sigB)
	}()
	pool := wire.NewPool()
	defer pool.Close()
	bRef := ref.New("loop:traderd-b", trader.ServiceName)
	tcB := dialUp(t, pool, bRef)
	ctx := context.Background()
	target := ref.New("tcp:p:9", "CarRentalService")
	if _, err := tcB.ExportSID(ctx, sidl.CarRentalSID(), target); err != nil {
		t.Fatal(err)
	}

	// Trader A linked to B.
	sigA := make(chan os.Signal)
	doneA := make(chan error, 1)
	go func() {
		doneA <- run([]string{
			"-listen", "loop:traderd-a", "-id", "A",
			"-type", typeFile,
			"-link", bRef.String(),
		}, sigA)
	}()
	tcA := dialUp(t, pool, ref.New("loop:traderd-a", trader.ServiceName))
	// The daemon serves before it links (two daemons may name each
	// other), so being up does not mean being linked yet.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if links, err := tcA.LinkList(ctx); err == nil && len(links) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("trader A never linked to B")
		}
	}

	// A federated import at A reaches B's offer.
	offers, err := tcA.Import(ctx, trader.NewImport("CarRentalService", trader.Hops(1)))
	if err != nil || len(offers) != 1 || offers[0].Ref != target {
		t.Fatalf("federated Import = %v, %v", offers, err)
	}

	close(sigA)
	if err := <-doneA; err != nil {
		t.Fatal(err)
	}
	close(sigB)
	if err := <-doneB; err != nil {
		t.Fatal(err)
	}
}

func TestDaemonErrors(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)
	if err := run([]string{"-listen", "junk"}, nil); err == nil {
		t.Fatal("bad endpoint must fail")
	}
	if err := run([]string{"-type", "/nonexistent.sidl"}, nil); err == nil {
		t.Fatal("missing type file must fail")
	}
	bad := filepath.Join(t.TempDir(), "bad.sidl")
	if err := os.WriteFile(bad, []byte("module X {"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-type", bad}, nil); err == nil {
		t.Fatal("unparseable type file must fail")
	}
	noTE := filepath.Join(t.TempDir(), "note.sidl")
	if err := os.WriteFile(noTE, []byte("module X { interface COSM_Operations { void F(); }; };"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-type", noTE}, nil); err == nil {
		t.Fatal("type file without trader export must fail")
	}
	if err := run([]string{"-listen", "loop:traderd-badlink", "-link", "junk"}, nil); err == nil {
		t.Fatal("bad link must fail")
	}
}
