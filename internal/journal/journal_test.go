package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"cosm/internal/obs"
)

// openStarted opens a journal on dir and runs the full recovery
// lifecycle, returning the replayed records.
func openStarted(t *testing.T, dir string, opts Options) (*Journal, [][]byte) {
	t.Helper()
	j, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	var replayed [][]byte
	if err := j.Replay(func(seq uint64, payload []byte) error {
		replayed = append(replayed, append([]byte(nil), payload...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := j.Start(nil); err != nil {
		t.Fatal(err)
	}
	return j, replayed
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, replayed := openStarted(t, dir, Options{Fsync: FsyncAlways})
	if len(replayed) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(replayed))
	}
	want := [][]byte{[]byte("one"), []byte("two"), []byte(`{"op":"export"}`)}
	for i, p := range want {
		seq, err := j.Append(p)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("Append #%d seq = %d", i, seq)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, replayed := openStarted(t, dir, Options{})
	defer j2.Close()
	if len(replayed) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(replayed), len(want))
	}
	for i := range want {
		if !bytes.Equal(replayed[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, replayed[i], want[i])
		}
	}
	// Appends continue the sequence.
	if seq, err := j2.Append([]byte("four")); err != nil || seq != 4 {
		t.Fatalf("Append after recovery = %d, %v", seq, err)
	}
}

func TestAppendBeforeStartFails(t *testing.T) {
	j, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, err := j.Append([]byte("x")); err != ErrNotStarted {
		t.Fatalf("Append before Start = %v, want ErrNotStarted", err)
	}
}

func TestReplayAfterStartFails(t *testing.T) {
	j, _ := openStarted(t, t.TempDir(), Options{})
	defer j.Close()
	if err := j.Replay(func(uint64, []byte) error { return nil }); err == nil {
		t.Fatal("Replay after Start must fail")
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	j, _ := openStarted(t, t.TempDir(), Options{})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
	if _, err := j.Append([]byte("x")); err != ErrClosed {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
}

// segFiles lists the journal's segment files sorted by name.
func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), segPrefix) {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out
}

func TestTornTailTruncatedAtLastValidRecord(t *testing.T) {
	dir := t.TempDir()
	j, _ := openStarted(t, dir, Options{Fsync: FsyncAlways})
	for i := 0; i < 5; i++ {
		if _, err := j.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a torn write: append a partial frame to the segment.
	segs := segFiles(t, dir)
	if len(segs) != 1 {
		t.Fatalf("segments = %v", segs)
	}
	f, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 0, 0, 0, 1, 2, 3}); err != nil { // length says 9, only 3 header bytes follow
		t.Fatal(err)
	}
	f.Close()

	reg := obs.NewRegistry()
	j2, replayed := openStarted(t, dir, Options{Metrics: reg})
	m := j2.m
	defer j2.Close()
	if len(replayed) != 5 {
		t.Fatalf("replayed %d records after torn tail, want 5", len(replayed))
	}
	if got := m.recordsTruncated.Value(); got != 1 {
		t.Fatalf("records_truncated = %d, want 1", got)
	}
	if got := m.recordsRecovered.Value(); got != 5 {
		t.Fatalf("records_recovered = %d, want 5", got)
	}
	// The truncated tail is gone from disk: a third recovery is clean.
	j2.Close()
	reg2 := obs.NewRegistry()
	j3, replayed := openStarted(t, dir, Options{Metrics: reg2})
	m2 := j3.m
	defer j3.Close()
	if len(replayed) != 5 || m2.recordsTruncated.Value() != 0 {
		t.Fatalf("second recovery: %d records, truncated=%d", len(replayed), m2.recordsTruncated.Value())
	}
}

func TestBitFlipCutsFromCorruptRecordOn(t *testing.T) {
	dir := t.TempDir()
	j, _ := openStarted(t, dir, Options{Fsync: FsyncAlways})
	var offsets []int64
	for i := 0; i < 5; i++ {
		if _, err := j.Append([]byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, j.segSize)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one bit inside record 3 (index 2): recovery must keep records
	// 1-2 and drop 3-5 (frame boundaries past a corrupt record are not
	// trustworthy).
	segs := segFiles(t, dir)
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[offsets[1]+recordOverhead/2] ^= 0x40
	if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, replayed := openStarted(t, dir, Options{Metrics: obs.NewRegistry()})
	m := j2.m
	defer j2.Close()
	if len(replayed) != 2 {
		t.Fatalf("replayed %d records after bit flip, want 2", len(replayed))
	}
	for i, rec := range replayed {
		if want := fmt.Sprintf("payload-%d", i); string(rec) != want {
			t.Fatalf("record %d = %q, want %q", i, rec, want)
		}
	}
	if m.recordsTruncated.Value() == 0 {
		t.Fatal("bit flip not counted as truncation")
	}
	// Sequence numbers are reissued after the cut.
	if seq, err := j2.Append([]byte("fresh")); err != nil || seq != 3 {
		t.Fatalf("Append after cut = %d, %v", seq, err)
	}
}

func TestSegmentRotationAndRecoveryAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation every couple of records.
	j, _ := openStarted(t, dir, Options{Fsync: FsyncNever, SegmentSize: 64})
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := j.Append([]byte(fmt.Sprintf("record-number-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(segFiles(t, dir)); got < 3 {
		t.Fatalf("expected multiple segments, got %d", got)
	}

	j2, replayed := openStarted(t, dir, Options{})
	defer j2.Close()
	if len(replayed) != n {
		t.Fatalf("replayed %d records across segments, want %d", len(replayed), n)
	}
	for i, rec := range replayed {
		if want := fmt.Sprintf("record-number-%02d", i); string(rec) != want {
			t.Fatalf("record %d = %q, want %q", i, rec, want)
		}
	}
}

func TestCompactionFoldsLogIntoSnapshot(t *testing.T) {
	dir := t.TempDir()
	j, _ := openStarted(t, dir, Options{Fsync: FsyncNever, SegmentSize: 128})
	var mu sync.Mutex
	state := []string{} // the "store": a list of applied records
	appendRec := func(s string) {
		mu.Lock()
		state = append(state, s)
		mu.Unlock()
		if _, err := j.Append([]byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	j.snapshotFn = func() ([]byte, error) {
		mu.Lock()
		defer mu.Unlock()
		return []byte(strings.Join(state, ",")), nil
	}
	for i := 0; i < 10; i++ {
		appendRec(fmt.Sprintf("r%d", i))
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	if st.SnapshotSeq != 10 {
		t.Fatalf("SnapshotSeq = %d, want 10", st.SnapshotSeq)
	}
	appendRec("r10")
	appendRec("r11")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	snap, ok := j2.Snapshot()
	if !ok {
		t.Fatal("no snapshot recovered")
	}
	if want := "r0,r1,r2,r3,r4,r5,r6,r7,r8,r9"; string(snap) != want {
		t.Fatalf("snapshot = %q, want %q", snap, want)
	}
	var tail []string
	if err := j2.Replay(func(seq uint64, p []byte) error {
		tail = append(tail, string(p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(tail) != 2 || tail[0] != "r10" || tail[1] != "r11" {
		t.Fatalf("post-snapshot replay = %v", tail)
	}
}

func TestAutoCompactionTriggersAndDeletesSegments(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{Fsync: FsyncNever, SegmentSize: 64, CompactEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Replay(func(uint64, []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	count := 0
	if err := j.Start(func() ([]byte, error) {
		mu.Lock()
		defer mu.Unlock()
		return []byte(fmt.Sprintf("count=%d", count)), nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		mu.Lock()
		count++
		mu.Unlock()
		if _, err := j.Append([]byte("rrrrrrrrrrrrrrrr")); err != nil {
			t.Fatal(err)
		}
	}
	// The background compactor is asynchronous; force one deterministic
	// pass to bound the test, then verify covered segments are gone.
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	if st.SnapshotSeq == 0 {
		t.Fatal("auto/manual compaction never installed a snapshot")
	}
	if got := len(segFiles(t, dir)); got > 2 {
		t.Fatalf("%d segments survive compaction", got)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// All 64 records reconstructable: snapshot + tail replay.
	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	snap, ok := j2.Snapshot()
	if !ok {
		t.Fatal("no snapshot after auto compaction")
	}
	var snapCount int
	if _, err := fmt.Sscanf(string(snap), "count=%d", &snapCount); err != nil {
		t.Fatalf("snapshot %q: %v", snap, err)
	}
	if snapCount > 64 {
		t.Fatalf("snapshot count %d exceeds appends", snapCount)
	}
	replayed := 0
	if err := j2.Replay(func(uint64, []byte) error { replayed++; return nil }); err != nil {
		t.Fatal(err)
	}
	if uint64(replayed) < 64-j2.Stats().SnapshotSeq {
		t.Fatalf("replayed %d, snapshot seq %d: records lost", replayed, j2.Stats().SnapshotSeq)
	}
}

func TestCorruptSnapshotFallsBackToFullReplay(t *testing.T) {
	dir := t.TempDir()
	j, _ := openStarted(t, dir, Options{Fsync: FsyncAlways})
	j.snapshotFn = func() ([]byte, error) { return []byte("snapshot-state"), nil }
	for i := 0; i < 6; i++ {
		if _, err := j.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	// Compaction deleted covered segments, so a corrupt snapshot now
	// genuinely loses those records — but recovery must still come up,
	// replaying whatever the log retains.
	for i := 6; i < 9; i++ {
		if _, err := j.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	snapPath := filepath.Join(dir, snapName)
	raw, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(snapPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, replayed := openStarted(t, dir, Options{Metrics: obs.NewRegistry()})
	defer j2.Close()
	if _, ok := j2.Snapshot(); ok {
		t.Fatal("corrupt snapshot accepted")
	}
	if len(replayed) != 3 {
		t.Fatalf("replayed %d surviving records, want 3", len(replayed))
	}
}

func TestFsyncPolicies(t *testing.T) {
	for _, pol := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(pol.String(), func(t *testing.T) {
			reg := obs.NewRegistry()
			j, _ := openStarted(t, t.TempDir(), Options{Fsync: pol, Metrics: reg})
			for i := 0; i < 3; i++ {
				if _, err := j.Append([]byte("x")); err != nil {
					t.Fatal(err)
				}
			}
			if err := j.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestParseFsync(t *testing.T) {
	for s, want := range map[string]FsyncPolicy{"always": FsyncAlways, "interval": FsyncInterval, "never": FsyncNever} {
		got, err := ParseFsync(s)
		if err != nil || got != want {
			t.Fatalf("ParseFsync(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseFsync("sometimes"); err == nil {
		t.Fatal("ParseFsync must reject unknown policies")
	}
}

func TestConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	j, _ := openStarted(t, dir, Options{Fsync: FsyncNever, SegmentSize: 256})
	var wg sync.WaitGroup
	const workers, per = 8, 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := j.Append([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, replayed := openStarted(t, dir, Options{})
	defer j2.Close()
	if len(replayed) != workers*per {
		t.Fatalf("recovered %d of %d concurrent appends", len(replayed), workers*per)
	}
}

func TestAppendJSON(t *testing.T) {
	dir := t.TempDir()
	j, _ := openStarted(t, dir, Options{})
	type rec struct {
		Op string `json:"op"`
		N  int    `json:"n"`
	}
	if _, err := j.AppendJSON(rec{Op: "export", N: 7}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, replayed := openStarted(t, dir, Options{})
	defer j2.Close()
	if len(replayed) != 1 || string(replayed[0]) != `{"op":"export","n":7}` {
		t.Fatalf("AppendJSON round trip = %q", replayed)
	}
}

func TestUnrecognisedSegmentFileTruncated(t *testing.T) {
	dir := t.TempDir()
	// A file with a segment name but garbage content (e.g. torn during
	// creation before the magic landed) must not wedge recovery.
	if err := os.WriteFile(filepath.Join(dir, segPrefix+"0000000000000001"+segSuffix), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, replayed := openStarted(t, dir, Options{Metrics: obs.NewRegistry()})
	m := j.m
	defer j.Close()
	if len(replayed) != 0 {
		t.Fatalf("replayed %d records from garbage", len(replayed))
	}
	if m.recordsTruncated.Value() == 0 {
		t.Fatal("garbage file not counted as truncated")
	}
	if _, err := j.Append([]byte("fresh")); err != nil {
		t.Fatal(err)
	}
}

// TestIntervalFsyncFlushOnRotation is the regression test for rotation
// stranding unsynced records: under FsyncInterval, rotating away from a
// dirty segment must fsync it before closing its descriptor (Sync and
// the background ticker only ever reach the current segment). The
// interval is set far beyond the test so the only possible fsyncs are
// the rotation flush and the Close flush.
func TestIntervalFsyncFlushOnRotation(t *testing.T) {
	dir := t.TempDir()
	j, _ := openStarted(t, dir, Options{
		Fsync: FsyncInterval, fsyncEvery: time.Hour, SegmentSize: 64, Metrics: obs.NewRegistry(),
	})
	m := j.m
	payload := []byte("0123456789abcdef") // 16B + 16B framing = 32B per record
	for i := 0; i < 3; i++ {              // the third append rotates
		if _, err := j.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(segFiles(t, dir)); got < 2 {
		t.Fatalf("expected a rotation, %d segments", got)
	}
	if got := m.fsyncs.Value(); got < 1 {
		t.Fatalf("fsyncs after rotation = %d, want >= 1 (outgoing segment not flushed)", got)
	}
	afterRotation := m.fsyncs.Value()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Close flushes the pending append of the fresh segment too.
	if got := m.fsyncs.Value(); got <= afterRotation {
		t.Fatalf("fsyncs after Close = %d, want > %d (dirty tail not flushed)", got, afterRotation)
	}
	j2, replayed := openStarted(t, dir, Options{})
	defer j2.Close()
	if len(replayed) != 3 {
		t.Fatalf("replayed %d records, want 3", len(replayed))
	}
}

// TestIntervalFsyncFlushOnClose: a graceful Close under FsyncInterval
// must flush pending appends even when the interval timer never fired.
func TestIntervalFsyncFlushOnClose(t *testing.T) {
	dir := t.TempDir()
	j, _ := openStarted(t, dir, Options{Fsync: FsyncInterval, fsyncEvery: time.Hour, Metrics: obs.NewRegistry()})
	m := j.m
	for i := 0; i < 3; i++ {
		if _, err := j.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.fsyncs.Value(); got != 0 {
		t.Fatalf("fsyncs before Close = %d, want 0 (interval is an hour)", got)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := m.fsyncs.Value(); got != 1 {
		t.Fatalf("fsyncs after Close = %d, want exactly the final flush", got)
	}
	j2, replayed := openStarted(t, dir, Options{})
	defer j2.Close()
	if len(replayed) != 3 {
		t.Fatalf("replayed %d records after graceful close, want 3", len(replayed))
	}
}

// TestTornFirstRecordOfFreshSegment covers recovery when the torn
// record is the very first record of a new segment: the empty torn
// segment must be dropped entirely and sequence numbers reissued.
func TestTornFirstRecordOfFreshSegment(t *testing.T) {
	dir := t.TempDir()
	j, _ := openStarted(t, dir, Options{Fsync: FsyncAlways})
	for i := 0; i < 5; i++ {
		if _, err := j.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// A fresh segment whose only content after the magic is a torn frame.
	torn := filepath.Join(dir, fmt.Sprintf("%s%016x%s", segPrefix, uint64(6), segSuffix))
	if err := os.WriteFile(torn, append([]byte(segMagic), 0xAA, 0xBB, 0xCC), 0o644); err != nil {
		t.Fatal(err)
	}

	j2, replayed := openStarted(t, dir, Options{Metrics: obs.NewRegistry()})
	m := j2.m
	defer j2.Close()
	if len(replayed) != 5 {
		t.Fatalf("replayed %d records, want 5", len(replayed))
	}
	if m.recordsTruncated.Value() != 1 {
		t.Fatalf("records_truncated = %d, want 1", m.recordsTruncated.Value())
	}
	if _, err := os.Stat(torn); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("empty torn segment survives recovery: %v", err)
	}
	if seq, err := j2.Append([]byte("fresh")); err != nil || seq != 6 {
		t.Fatalf("Append after torn-first-record recovery = %d, %v", seq, err)
	}
}

// TestEmptyTrailingSegmentRecovery: a rotation (or compaction) can
// leave a magic-only trailing segment; recovery must adopt it as the
// append target without counting anything truncated.
func TestEmptyTrailingSegmentRecovery(t *testing.T) {
	dir := t.TempDir()
	j, _ := openStarted(t, dir, Options{Fsync: FsyncAlways})
	for i := 0; i < 4; i++ {
		if _, err := j.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	empty := filepath.Join(dir, fmt.Sprintf("%s%016x%s", segPrefix, uint64(5), segSuffix))
	if err := os.WriteFile(empty, []byte(segMagic), 0o644); err != nil {
		t.Fatal(err)
	}

	j2, replayed := openStarted(t, dir, Options{Metrics: obs.NewRegistry()})
	m := j2.m
	defer j2.Close()
	if len(replayed) != 4 || m.recordsTruncated.Value() != 0 {
		t.Fatalf("replayed %d (truncated %d), want 4 clean records", len(replayed), m.recordsTruncated.Value())
	}
	if seq, err := j2.Append([]byte("rec-4")); err != nil || seq != 5 {
		t.Fatalf("Append into empty trailing segment = %d, %v", seq, err)
	}
}

// TestSnapshotZeroRecordsRestart: restart from a snapshot with no
// records past the watermark (compaction folded everything).
func TestSnapshotZeroRecordsRestart(t *testing.T) {
	dir := t.TempDir()
	j, _ := openStarted(t, dir, Options{Fsync: FsyncAlways})
	j.snapshotFn = func() ([]byte, error) { return []byte("full-state"), nil }
	for i := 0; i < 7; i++ {
		if _, err := j.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	snap, ok := j2.Snapshot()
	if !ok || string(snap) != "full-state" {
		t.Fatalf("snapshot = %q, %v", snap, ok)
	}
	replayed := 0
	if err := j2.Replay(func(uint64, []byte) error { replayed++; return nil }); err != nil {
		t.Fatal(err)
	}
	if replayed != 0 {
		t.Fatalf("replayed %d records past a full snapshot, want 0", replayed)
	}
	if err := j2.Start(nil); err != nil {
		t.Fatal(err)
	}
	st := j2.Stats()
	if st.LastSeq != 7 || st.SnapshotSeq != 7 {
		t.Fatalf("Stats after snapshot-only restart = %+v", st)
	}
	if seq, err := j2.Append([]byte("rec-7")); err != nil || seq != 8 {
		t.Fatalf("Append after snapshot-only restart = %d, %v", seq, err)
	}
}

// TestReadFrom covers the replication read path: positional reads,
// the max bound, and ErrCompacted once the watermark passes the
// requested position.
func TestReadFrom(t *testing.T) {
	dir := t.TempDir()
	j, _ := openStarted(t, dir, Options{Fsync: FsyncNever, SegmentSize: 64})
	defer j.Close()
	for i := 0; i < 10; i++ {
		if _, err := j.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := j.ReadFrom(0, 0)
	if err != nil || len(recs) != 10 {
		t.Fatalf("ReadFrom(0) = %d records, %v", len(recs), err)
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) || string(r.Payload) != fmt.Sprintf("rec-%d", i) {
			t.Fatalf("record %d = seq %d payload %q", i, r.Seq, r.Payload)
		}
	}
	recs, err = j.ReadFrom(5, 2)
	if err != nil || len(recs) != 2 || recs[0].Seq != 6 || recs[1].Seq != 7 {
		t.Fatalf("ReadFrom(5, max 2) = %+v, %v", recs, err)
	}
	if recs, err = j.ReadFrom(10, 0); err != nil || recs != nil {
		t.Fatalf("ReadFrom(last) = %+v, %v, want empty", recs, err)
	}

	j.snapshotFn = func() ([]byte, error) { return []byte("state"), nil }
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := j.ReadFrom(0, 0); !errors.Is(err, ErrCompacted) {
		t.Fatalf("ReadFrom below watermark = %v, want ErrCompacted", err)
	}
	if recs, err := j.ReadFrom(10, 0); err != nil || len(recs) != 0 {
		t.Fatalf("ReadFrom(watermark) = %+v, %v", recs, err)
	}
}

// TestWaitFor: the long-poll primitive wakes on append and on close,
// and times out honestly.
func TestWaitFor(t *testing.T) {
	j, _ := openStarted(t, t.TempDir(), Options{Fsync: FsyncNever})
	if j.WaitFor(0, 20*time.Millisecond) {
		t.Fatal("WaitFor reported records on an empty journal")
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		_, _ = j.Append([]byte("wake"))
	}()
	if !j.WaitFor(0, 5*time.Second) {
		t.Fatal("WaitFor missed the append")
	}
	if !j.WaitFor(0, 0) {
		t.Fatal("WaitFor(satisfied) must return immediately true")
	}
	done := make(chan bool, 1)
	go func() { done <- j.WaitFor(99, 5*time.Second) }()
	time.Sleep(10 * time.Millisecond)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if <-done {
		t.Fatal("WaitFor survived Close")
	}
}

// TestAppendAt covers the follower apply path: explicit sequence
// numbers, gap tolerance, and the monotonicity guard.
func TestAppendAt(t *testing.T) {
	dir := t.TempDir()
	j, _ := openStarted(t, dir, Options{Fsync: FsyncAlways})
	if err := j.AppendAt(5, []byte("five")); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendAt(3, []byte("stale")); err == nil {
		t.Fatal("AppendAt must reject non-monotonic sequence numbers")
	}
	if err := j.AppendAt(9, []byte("nine")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	var seqs []uint64
	if err := j2.Replay(func(seq uint64, _ []byte) error { seqs = append(seqs, seq); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 || seqs[0] != 5 || seqs[1] != 9 {
		t.Fatalf("replayed seqs = %v, want [5 9]", seqs)
	}
}

// TestInstallSnapshot: a follower leaps over compacted history by
// installing the leader's snapshot, and the journal recovers from it.
func TestInstallSnapshot(t *testing.T) {
	dir := t.TempDir()
	j, _ := openStarted(t, dir, Options{Fsync: FsyncAlways})
	for i := 0; i < 3; i++ {
		if _, err := j.Append([]byte("pre")); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.InstallSnapshot([]byte("leader-state"), 2); err == nil {
		t.Fatal("InstallSnapshot must reject a watermark behind the local log")
	}
	if err := j.InstallSnapshot([]byte("leader-state"), 100); err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	if st.LastSeq != 100 || st.SnapshotSeq != 100 {
		t.Fatalf("Stats after install = %+v", st)
	}
	if err := j.AppendAt(101, []byte("tail")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	snap, ok := j2.Snapshot()
	if !ok || string(snap) != "leader-state" {
		t.Fatalf("recovered snapshot = %q, %v", snap, ok)
	}
	var seqs []uint64
	if err := j2.Replay(func(seq uint64, _ []byte) error { seqs = append(seqs, seq); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 1 || seqs[0] != 101 {
		t.Fatalf("replayed seqs = %v, want [101]", seqs)
	}
}

// orderStore records the calls Recover makes.
type orderStore struct {
	calls    []string
	attached *Journal
}

func (s *orderStore) RestoreSnapshot(p []byte) error {
	s.calls = append(s.calls, "restore:"+string(p))
	return nil
}
func (s *orderStore) ReplayRecord(seq uint64, p []byte) error {
	s.calls = append(s.calls, "replay:"+string(p))
	return nil
}
func (s *orderStore) JournalSnapshot() ([]byte, error) {
	s.calls = append(s.calls, "snapshot")
	return []byte("state"), nil
}
func (s *orderStore) SetJournal(j *Journal) {
	s.calls = append(s.calls, "attach")
	s.attached = j
}

// TestRecoverOrder: Recover restores the snapshot, replays the records
// past it, starts the journal, attaches it and compacts — in that order
// — so a second boot finds everything in the snapshot.
func TestRecoverOrder(t *testing.T) {
	dir := t.TempDir()
	boot := func() *orderStore {
		j, err := Open(dir, Options{Fsync: FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		s := &orderStore{}
		if err := j.Recover(s); err != nil {
			t.Fatal(err)
		}
		if s.attached != j {
			t.Fatal("Recover did not attach the journal")
		}
		return s
	}
	first := boot()
	if got := strings.Join(first.calls, " "); got != "attach snapshot" {
		t.Fatalf("fresh directory: calls = %q", got)
	}
	for _, p := range []string{"a", "b"} {
		if _, err := first.attached.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := first.attached.Close(); err != nil {
		t.Fatal(err)
	}
	second := boot()
	if got := strings.Join(second.calls, " "); got != "restore:state replay:a replay:b attach snapshot" {
		t.Fatalf("second boot: calls = %q", got)
	}
	if err := second.attached.Close(); err != nil {
		t.Fatal(err)
	}
	third := boot()
	defer third.attached.Close()
	if got := strings.Join(third.calls, " "); got != "restore:state attach snapshot" {
		t.Fatalf("third boot: calls = %q (the second boot's compaction should have folded the records)", got)
	}
}

// FuzzJournalOpen: a segment holds whatever a crash left on disk — the
// market journal's, the browser's or the vote ledger's — so Open and
// Replay must survive any bytes behind the magic, and the journal they
// recover must keep both what it replayed and what it appends next:
// Open → Replay → Start → Append(x) → Close → Open → Replay yields the
// first replay followed by x. (A pledge appended after a torn tail is
// exactly that x.) The seeds are real segments: whole, torn mid-frame,
// and with a bit flipped.
func FuzzJournalOpen(f *testing.F) {
	dir := f.TempDir()
	j, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		f.Fatal(err)
	}
	if err := j.Start(nil); err != nil {
		f.Fatal(err)
	}
	for _, p := range []string{`{"op":"vote","name":"X","epoch":5}`, `{"op":"vote","epoch":6}`, "three"} {
		if _, err := j.Append([]byte(p)); err != nil {
			f.Fatal(err)
		}
	}
	j.Close()
	raw, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("%s%016x%s", segPrefix, 1, segSuffix)))
	if err != nil {
		f.Fatal(err)
	}
	seg := raw[len(segMagic):]
	flipped := append([]byte(nil), seg...)
	flipped[len(flipped)/2] ^= 0x10
	pledge := []byte(`{"op":"vote","name":"Y","epoch":7}`)
	f.Add(seg, pledge)
	f.Add(seg[:len(seg)-5], pledge)
	f.Add(flipped, []byte{})

	f.Fuzz(func(t *testing.T, segment, x []byte) {
		dir := t.TempDir()
		name := filepath.Join(dir, fmt.Sprintf("%s%016x%s", segPrefix, 1, segSuffix))
		if err := os.WriteFile(name, append([]byte(segMagic), segment...), 0o644); err != nil {
			t.Fatal(err)
		}
		j, first := openStarted(t, dir, Options{Fsync: FsyncNever})
		if _, err := j.Append(x); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j, second := openStarted(t, dir, Options{Fsync: FsyncNever})
		defer j.Close()
		if want := append(first, x); !slices.EqualFunc(second, want, bytes.Equal) {
			t.Fatalf("recovered %q, then appended %q: reopened to %q", first, x, second)
		}
	})
}
