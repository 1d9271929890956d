package journal

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"cosm/internal/obs"
)

func TestFailStopLatchesOnFsyncFault(t *testing.T) {
	fi := NewFaultInjector().FailNth(FaultFsync, 3, errors.New("disk on fire"))
	reg := obs.NewRegistry()
	j, _ := openStarted(t, t.TempDir(), Options{Fsync: FsyncAlways, Metrics: reg, FaultHook: fi.Hook()})
	m := j.m
	defer j.Close()

	if _, err := j.Append([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append([]byte("two")); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append([]byte("three")); err == nil {
		t.Fatal("append over a failed fsync succeeded")
	}
	if j.Failed() == nil {
		t.Fatal("fsync fault did not latch")
	}
	if m.fsyncErrors.Value() != 1 {
		t.Fatalf("fsync error counter = %d, want 1", m.fsyncErrors.Value())
	}
	// The latch is sticky: every later append is rejected with
	// ErrFailStop even though the injector only armed one fault.
	if _, err := j.Append([]byte("four")); !errors.Is(err, ErrFailStop) {
		t.Fatalf("append after latch = %v, want ErrFailStop", err)
	}
	if err := j.Sync(); !errors.Is(err, ErrFailStop) {
		t.Fatalf("sync after latch = %v, want ErrFailStop", err)
	}
}

func TestFailStopFiresOnFaultObserverOnce(t *testing.T) {
	fi := NewFaultInjector().FailNow(FaultFsync, ErrNoSpace)
	j, _ := openStarted(t, t.TempDir(), Options{Fsync: FsyncAlways, FaultHook: fi.Hook()})
	defer j.Close()

	var fired []error
	j.SetOnFault(func(err error) { fired = append(fired, err) })
	_, err1 := j.Append([]byte("one"))
	_, err2 := j.Append([]byte("two"))
	if err1 == nil || err2 == nil {
		t.Fatal("appends over a dead disk succeeded")
	}
	if len(fired) != 1 {
		t.Fatalf("OnFault fired %d times, want 1", len(fired))
	}
	if !errors.Is(fired[0], ErrNoSpace) {
		t.Fatalf("OnFault error = %v, want ErrNoSpace", fired[0])
	}

	// An observer registered after the latch fires immediately.
	var late error
	j.SetOnFault(func(err error) { late = err })
	if late == nil {
		t.Fatal("late OnFault observer not fired for an already-failed journal")
	}
}

func TestFailStopBackgroundSyncLatches(t *testing.T) {
	fi := NewFaultInjector().FailNth(FaultFsync, 1, errors.New("io error"))
	j, _ := openStarted(t, t.TempDir(), Options{Fsync: FsyncInterval, fsyncEvery: 5 * time.Millisecond, FaultHook: fi.Hook()})
	defer j.Close()

	faulted := make(chan error, 1)
	j.SetOnFault(func(err error) { faulted <- err })
	if _, err := j.Append([]byte("one")); err != nil {
		t.Fatal(err) // interval policy: the append itself does not sync
	}
	select {
	case <-faulted:
	case <-time.After(2 * time.Second):
		t.Fatal("background fsync fault never latched")
	}
	if _, err := j.Append([]byte("two")); !errors.Is(err, ErrFailStop) {
		t.Fatalf("append after background latch = %v, want ErrFailStop", err)
	}
}

func TestTornWriteFaultTruncatesOnRecovery(t *testing.T) {
	dir := t.TempDir()
	fi := NewFaultInjector().FailNth(FaultWrite, 3, ErrTornWrite)
	j, _ := openStarted(t, dir, Options{Fsync: FsyncAlways, FaultHook: fi.Hook()})
	if _, err := j.Append([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append([]byte("two")); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append([]byte("three")); err == nil {
		t.Fatal("torn write acknowledged")
	}
	if _, err := j.Append([]byte("four")); !errors.Is(err, ErrFailStop) {
		t.Fatalf("append after torn write = %v, want ErrFailStop", err)
	}
	j.Close()

	// Recovery truncates the half-written frame and keeps the two
	// acknowledged records — exactly the crash-mid-write contract.
	j2, replayed := openStarted(t, dir, Options{})
	defer j2.Close()
	if len(replayed) != 2 {
		t.Fatalf("recovered %d records, want 2", len(replayed))
	}
	if !bytes.Equal(replayed[0], []byte("one")) || !bytes.Equal(replayed[1], []byte("two")) {
		t.Fatalf("recovered %q", replayed)
	}
	if seq, err := j2.Append([]byte("three again")); err != nil || seq != 3 {
		t.Fatalf("append after torn-write recovery = %d, %v", seq, err)
	}
}

func TestRewindToSnapshotReplacesDivergentTail(t *testing.T) {
	dir := t.TempDir()
	j, _ := openStarted(t, dir, Options{Fsync: FsyncAlways})
	for _, p := range []string{"a", "b", "c", "d", "e"} {
		if _, err := j.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	// A plain install refuses to rewind below the local tail, and
	// leaves the state alone...
	restored := 0
	restore := func() error { restored++; return nil }
	if err := j.Install([]byte("SNAP"), 3, false, restore); err == nil {
		t.Fatal("Install rewound the log unasked")
	}
	if restored != 0 {
		t.Fatal("a refused install restored the state")
	}
	// ...the rejoin path replaces the log wholesale, divergent tail and
	// all, snapping the sequence back to the snapshot watermark.
	if err := j.Install([]byte("SNAP"), 3, true, restore); err != nil {
		t.Fatal(err)
	}
	if restored != 1 {
		t.Fatalf("install restored the state %d times, want 1", restored)
	}
	if seq, err := j.Append([]byte("x")); err != nil || seq != 4 {
		t.Fatalf("append after rewind = %d, %v", seq, err)
	}
	j.Close()

	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := j2.Snapshot()
	if !ok || !bytes.Equal(snap, []byte("SNAP")) {
		t.Fatalf("recovered snapshot = %q, %v", snap, ok)
	}
	var replayed [][]byte
	if err := j2.Replay(func(seq uint64, payload []byte) error {
		replayed = append(replayed, append([]byte(nil), payload...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 1 || !bytes.Equal(replayed[0], []byte("x")) {
		t.Fatalf("replayed %q, want just the post-rewind record", replayed)
	}
	j2.Close()
}

func TestFaultInjectorSchedules(t *testing.T) {
	fi := NewFaultInjector().
		FailNth("op", 2, errors.New("second")).
		FailFrom("op", 4, errors.New("from four"))
	hook := fi.Hook()
	var got []bool
	for i := 0; i < 6; i++ {
		got = append(got, hook("op") != nil)
	}
	want := []bool{false, true, false, true, true, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("occurrence %d fault = %v, want %v (all: %v)", i+1, got[i], want[i], got)
		}
	}
	if fi.Count("op") != 6 {
		t.Fatalf("Count = %d, want 6", fi.Count("op"))
	}
	if hook("other") != nil {
		t.Fatal("unrelated op faulted")
	}
}
