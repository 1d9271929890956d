// Package journal is the durability layer under the market's stateful
// services: a zero-dependency, generic write-ahead log with snapshot
// compaction and crash recovery.
//
// Callers append opaque logical records (the trader journals
// export/withdraw/replace/suspect/purge, the browser journals
// register/withdraw); the journal frames them with a length prefix, a
// monotonic sequence number and a CRC32C, appends them to a segment
// file under a configurable fsync policy, and rotates segments as they
// grow. Compaction folds everything up to a watermark into a single
// snapshot payload (supplied by the caller, installed atomically via
// rename) and deletes the covered segments.
//
// The journal owns the write-ahead order of the state it keeps durable:
// one write lock makes each of these a step nothing interleaves with —
// a record's encode, append and apply (Commit; CommitAt on a follower),
// the state fold of a cut (Compact; Cut, for shipping to a follower),
// and a snapshot install with the state restore (Install). So the state
// applies records in log order, and a snapshot is the state at exactly
// its watermark. Lock order: compactMu (one
// snapshot-file writer: Compact, Install) → the write lock → mu (the
// log's bookkeeping). The caller's functions run under the write lock
// and must not call back into the journal; a caller holds no lock of
// its own across a journal call.
//
// Recovery is the reverse path. Open loads the latest valid snapshot
// and reads each segment once, streaming nothing: it refuses another
// format version before it repairs anything, then truncates the log at
// the first torn or corrupt record — a crash mid-append loses at most
// the unsynced tail, never the records before it. Replay then streams
// every record past the snapshot's watermark to the caller's replay
// function. Every read of a segment — Open's, Replay's and ReadFrom's —
// is one buffered frame scan; each caller decides only what a torn tail
// means to it. Replayed records must be idempotent state setters
// (a re-inserted offer overwrites itself, a withdraw of an absent ID is
// a no-op): a caller may apply an effect before it journals it (the
// trader's type definitions and lease purges do), which leaves a
// snapshot cut in between ahead of its watermark.
//
// Lifecycle:
//
//	j, err := journal.Open(dir, opts)      // scan, pick snapshot, seal tail
//	err = j.Recover(store)                 // restore, replay, start, attach, compact
//	...
//	seq, err := j.Commit(encode, apply)
//	...
//	j.Close()                              // final flush + fsync
//
// Recover is Snapshot, Replay and Start in their one correct order;
// the three stay exported for callers that recover without a Store.
package journal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cosm/internal/obs"
)

// Errors reported by the journal.
var (
	ErrClosed     = errors.New("journal: closed")
	ErrNotStarted = errors.New("journal: not started (recovery incomplete)")
	ErrCorrupt    = errors.New("journal: corrupt")
	// ErrCompacted reports a ReadFrom position below the compaction
	// watermark: the requested records were folded into the snapshot and
	// their segments deleted, so the reader must ship the snapshot
	// instead.
	ErrCompacted = errors.New("journal: records compacted")
	// ErrFailStop reports a journal that latched a disk fault: a failed
	// fsync or record write means the log's tail can no longer be
	// trusted, so the journal rejects every further append and sync
	// rather than acknowledge records it cannot keep. The latched cause
	// is available from Failed; reads and recovery keep working.
	ErrFailStop = errors.New("journal: fail-stop (disk fault latched)")
	// ErrVersion reports a segment or snapshot written in another format
	// version. Open refuses the directory and leaves every file as it
	// found it: there is no reader for another version, and repairing
	// such a file as a torn write would drop every record it holds.
	ErrVersion = errors.New("journal: written in another format version")
)

// FsyncPolicy selects when appended records are forced to stable
// storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs after every append: no acknowledged record is
	// ever lost, at the cost of one fsync per mutation.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs on a background timer (every 100ms): a crash
	// loses at most one interval's worth of records.
	FsyncInterval
	// FsyncNever leaves syncing to the operating system: fastest, and a
	// crash loses whatever the page cache still held.
	FsyncNever
)

// ParseFsync maps the -fsync flag vocabulary (always|interval|never)
// to a policy.
func ParseFsync(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("journal: unknown fsync policy %q (want always|interval|never)", s)
}

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	}
	return "unknown"
}

// Options configure a journal.
type Options struct {
	// Fsync selects the sync policy (default FsyncAlways).
	Fsync FsyncPolicy
	// SegmentSize rotates the append segment once it exceeds this many
	// bytes (default 4MiB).
	SegmentSize int64
	// CompactEvery triggers snapshot compaction after this many appends
	// since the last snapshot; 0 disables automatic compaction
	// (Compact can still be called by hand).
	CompactEvery int
	// Metrics is the registry receiving the journal's cosm_journal_*
	// families; nil disables recording.
	Metrics *obs.Registry
	// FaultHook, when set, is consulted before each disk operation
	// (FaultFsync, FaultWrite, FaultSnapshot) and a non-nil return is
	// treated as that operation failing — the disk-fault injection seam
	// used by the fail-stop tests and the trader's cell simulation (see
	// FaultInjector). Production journals leave it nil.
	FaultHook func(op string) error

	// fsyncEvery overrides the FsyncInterval period; only this package's
	// tests set it, to keep the background ticker out of (or quickly
	// into) a test.
	fsyncEvery time.Duration
}

const (
	defaultFsyncEvery  = 100 * time.Millisecond
	defaultSegmentSize = 4 << 20

	segPrefix    = "wal-"
	segSuffix    = ".log"
	snapName     = "SNAPSHOT"
	snapTempName = "SNAPSHOT.tmp"

	// segMagic/snapMagic head every segment and snapshot file. The last
	// byte is the format version: 2 since the trader and the browser
	// write SIDL-encoded records. A complete header carrying another
	// digit is refused (ErrVersion), never read and never repaired.
	segMagic  = "COSMWAL2"
	snapMagic = "COSMSNP2"

	// recordOverhead is the framing around one payload: u32 length,
	// u64 sequence number, u32 CRC32C.
	recordOverhead = 4 + 8 + 4

	// maxRecordSize rejects absurd length prefixes during recovery (a
	// corrupt length would otherwise drive a giant allocation).
	maxRecordSize = 64 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Journal is a write-ahead log over one directory. Commit, Append,
// CommitAt, Install, Compact, Cut and Sync are safe for concurrent use;
// Open/Replay/Start follow the lifecycle documented on the package.
type Journal struct {
	dir      string
	opts     Options
	m        metrics
	openedAt time.Time
	// recoverySecs holds the float64 bits of the last recovery duration
	// for the cosm_journal_recovery_seconds gauge.
	recoverySecs atomic.Uint64

	mu      sync.Mutex
	started bool
	closed  bool
	seq     uint64 // last assigned sequence number
	seg     *os.File
	segSize int64
	dirty   bool   // records appended since the last sync
	frame   []byte // append's frame buffer, reused under mu

	// failed latches the first unrecoverable disk error (fail-stop);
	// faultPending marks an OnFault notification not yet delivered, and
	// onFault is the registered observer (fired outside j.mu by
	// flushFaultNotify).
	failed       error
	faultPending bool
	onFault      func(error)

	// sinceSnap counts appends since the last snapshot, driving
	// automatic compaction.
	sinceSnap int
	snapSeq   uint64 // watermark of the installed snapshot
	snapLive  bool   // a snapshot file is installed on disk

	// snapshotFn folds current state into a snapshot payload
	// (installed by Start; nil disables compaction).
	snapshotFn func() ([]byte, error)

	// recovered holds the Open scan results consumed by Snapshot and
	// Replay.
	snapPayload []byte
	hasSnap     bool
	segments    []segmentInfo // sorted by start sequence

	// compactMu serializes the passes that write the snapshot file
	// (Compact, Install); writeMu orders the write-ahead steps (see the
	// package doc) and guards rec, Commit's record buffer. Lock order:
	// compactMu → writeMu → mu.
	compactMu sync.Mutex
	writeMu   sync.Mutex
	rec       []byte

	// notify is closed (and reset to nil) whenever the sequence advances
	// or the journal closes, waking WaitFor blockers; lazily allocated by
	// the first waiter.
	notify chan struct{}

	kick chan struct{} // compaction trigger
	stop chan struct{}
	bg   sync.WaitGroup
}

// Record is one framed log record as returned by ReadFrom.
type Record struct {
	Seq     uint64
	Payload []byte
}

// segmentInfo describes one scanned segment file.
type segmentInfo struct {
	path     string
	startSeq uint64
}

// Stats is a point-in-time summary of the journal (introspection,
// tests).
type Stats struct {
	// LastSeq is the last assigned record sequence number.
	LastSeq uint64
	// SnapshotSeq is the watermark of the installed snapshot (0 when
	// none).
	SnapshotSeq uint64
	// HasSnapshot reports whether a snapshot file is installed — a
	// snapshot at watermark 0 can still carry boot-time state that was
	// never journalled as records.
	HasSnapshot bool
	// Segments is the number of live segment files.
	Segments int
}

// Open scans dir (creating it if needed), loads the newest valid
// snapshot, seals the log tail — truncating at the first torn or
// corrupt record — and returns a journal ready for Snapshot/Replay/
// Start. The directory must not be shared between live journals.
func Open(dir string, opts Options) (*Journal, error) {
	if opts.fsyncEvery <= 0 {
		opts.fsyncEvery = defaultFsyncEvery
	}
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = defaultSegmentSize
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{
		dir:      dir,
		opts:     opts,
		m:        bindMetrics(opts.Metrics),
		openedAt: time.Now(),
		kick:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
	}
	opts.Metrics.GaugeFunc("cosm_journal_recovery_seconds", "Duration of the last boot recovery (open + replay).",
		func() float64 { return math.Float64frombits(j.recoverySecs.Load()) })
	if err := j.loadSnapshot(); err != nil {
		return nil, err
	}
	if err := j.scanSegments(); err != nil {
		return nil, err
	}
	return j, nil
}

// loadSnapshot reads the installed snapshot, if any. A corrupt snapshot
// is ignored (and counted), falling back to full log replay — the log
// is the source of truth, the snapshot only an accelerator, and
// compaction deletes segments only after a snapshot was durably
// installed.
func (j *Journal) loadSnapshot() error {
	raw, err := os.ReadFile(filepath.Join(j.dir, snapName))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	if otherVersion(raw, snapMagic) {
		return fmt.Errorf("%w: %s", ErrVersion, filepath.Join(j.dir, snapName))
	}
	payload, seq, err := decodeSnapshot(raw)
	if err != nil {
		j.m.snapshotsDiscarded.Inc()
		return nil
	}
	j.snapPayload, j.hasSnap, j.snapSeq, j.seq = payload, true, seq, seq
	j.snapLive = true
	return nil
}

// decodeSnapshot validates a snapshot file: magic, u64 watermark,
// payload, trailing CRC32C over everything before it.
func decodeSnapshot(raw []byte) (payload []byte, seq uint64, err error) {
	if len(raw) < len(snapMagic)+8+4 || string(raw[:len(snapMagic)]) != snapMagic {
		return nil, 0, fmt.Errorf("%w: snapshot header", ErrCorrupt)
	}
	body, sum := raw[:len(raw)-4], binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if crc32.Checksum(body, castagnoli) != sum {
		return nil, 0, fmt.Errorf("%w: snapshot checksum", ErrCorrupt)
	}
	seq = binary.LittleEndian.Uint64(body[len(snapMagic):])
	return body[len(snapMagic)+8:], seq, nil
}

func encodeSnapshot(payload []byte, seq uint64) []byte {
	buf := make([]byte, 0, len(snapMagic)+8+len(payload)+4)
	buf = append(buf, snapMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// scanSegments indexes the segment files and seals the log. Every
// segment is read once, and all of them are read before any is
// repaired: another version is refused with every file as Open found
// it. Then the log is cut at the first torn or corrupt record —
// wherever in the chain it lies, since a crash during compaction or
// rotation can leave one mid-chain — so appends resume on a clean
// tail.
func (j *Journal) scanSegments() error {
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		start, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 16, 64)
		if err != nil {
			continue
		}
		j.segments = append(j.segments, segmentInfo{path: filepath.Join(j.dir, name), startSeq: start})
	}
	sort.Slice(j.segments, func(a, b int) bool { return j.segments[a].startSeq < j.segments[b].startSeq })
	scans := make([]segScan, len(j.segments))
	for i, seg := range j.segments {
		if scans[i], err = scanSegment(seg.path, nil); err != nil {
			return err
		}
	}

	for i, s := range scans {
		j.seq = max(j.seq, s.lastSeq)
		if !s.torn {
			continue
		}
		// Everything past the first bad frame is unreachable (frame
		// boundaries are lost), so it counts as one truncated record.
		// Every later segment goes whole: its records would reuse
		// sequence numbers the cut frees.
		truncated := 1
		for k := i + 1; k < len(scans); k++ {
			truncated += scans[k].records
			if scans[k].torn {
				truncated++
			}
			_ = os.Remove(j.segments[k].path)
		}
		j.m.recordsTruncated.Add(uint64(truncated))
		path := j.segments[i].path
		if s.records == 0 {
			// Nothing valid left in the torn segment either.
			j.segments = j.segments[:i]
			_ = os.Remove(path)
			return nil
		}
		j.segments = j.segments[:i+1]
		if err := os.Truncate(path, s.valid); err != nil {
			return fmt.Errorf("journal: truncate %s: %w", path, err)
		}
		return nil
	}
	return nil
}

// otherVersion reports whether head is a complete header of magic's
// kind naming another version. A shorter or different head names none:
// it is a torn or garbage file, which recovery repairs.
func otherVersion(head []byte, magic string) bool {
	n := len(magic)
	if len(head) < n || string(head[:n-1]) != magic[:n-1] {
		return false
	}
	v := head[n-1]
	return v >= '0' && v <= '9' && v != magic[n-1]
}

// scanBufSize is the read buffer of a segment scan: one read(2) brings
// in many frames.
const scanBufSize = 64 << 10

// segScan is what one pass over a segment found.
type segScan struct {
	lastSeq uint64 // sequence number of the last valid frame (0: none)
	valid   int64  // byte length of the header and the valid frames
	records int    // valid frames
	// torn reports that the file runs on past its valid prefix: a torn
	// or corrupt frame, or a header that names no version (a file torn
	// before its magic landed, which has no valid prefix).
	torn bool
}

// scanSegment is the one reader of a segment file: it checks the
// header and hands each valid frame, in order, to fn (nil: none) until
// fn returns false. A header naming another version is ErrVersion; a
// torn or corrupt frame ends the scan, and what the torn rest means is
// the caller's policy. With fn stopping early, the scan covers the
// frames up to there.
func scanSegment(path string, fn func(seq uint64, payload []byte) bool) (segScan, error) {
	f, err := os.Open(path)
	if err != nil {
		return segScan{}, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, scanBufSize)
	var head [len(segMagic)]byte
	n, _ := io.ReadFull(r, head[:])
	if otherVersion(head[:n], segMagic) {
		return segScan{}, fmt.Errorf("%w: %s", ErrVersion, path)
	}
	if string(head[:n]) != segMagic {
		return segScan{torn: true}, nil
	}
	s := segScan{valid: int64(len(segMagic))}
	for {
		seq, payload, err := readRecord(r)
		if err == io.EOF {
			return s, nil
		}
		if err != nil {
			s.torn = true
			return s, nil
		}
		s.lastSeq = seq
		s.valid += int64(recordOverhead + len(payload))
		s.records++
		if fn != nil && !fn(seq, payload) {
			return s, nil
		}
	}
}

// readRecord decodes one framed record: u32 payload length, u64
// sequence, payload, u32 CRC32C over sequence+payload. io.EOF means a
// clean end; any other error means a torn or corrupt frame.
func readRecord(r io.Reader) (seq uint64, payload []byte, err error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: torn length", ErrCorrupt)
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > maxRecordSize {
		return 0, nil, fmt.Errorf("%w: implausible record length %d", ErrCorrupt, n)
	}
	if _, err := io.ReadFull(r, hdr[4:12]); err != nil {
		return 0, nil, fmt.Errorf("%w: torn header", ErrCorrupt)
	}
	seq = binary.LittleEndian.Uint64(hdr[4:12])
	buf := make([]byte, n+4)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, fmt.Errorf("%w: torn payload", ErrCorrupt)
	}
	payload = buf[:n]
	sum := binary.LittleEndian.Uint32(buf[n:])
	crc := crc32.Checksum(hdr[4:12], castagnoli)
	crc = crc32.Update(crc, castagnoli, payload)
	if crc != sum {
		return 0, nil, fmt.Errorf("%w: checksum mismatch at seq %d", ErrCorrupt, seq)
	}
	return seq, payload, nil
}

// appendFrame appends the on-disk frame of one record to dst.
func appendFrame(dst []byte, seq uint64, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	crc := crc32.Checksum(dst[len(dst)-8:], castagnoli)
	dst = append(dst, payload...)
	crc = crc32.Update(crc, castagnoli, payload)
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// Snapshot returns the recovered snapshot payload, if one was
// installed. Valid between Open and Start (Start releases the buffer).
func (j *Journal) Snapshot() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapPayload, j.hasSnap
}

// Replay streams every recovered record with a sequence number past the
// snapshot watermark to fn, in order. A non-nil error from fn aborts
// the replay and is returned. Must be called before Start.
func (j *Journal) Replay(fn func(seq uint64, payload []byte) error) error {
	j.mu.Lock()
	if j.started {
		j.mu.Unlock()
		return errors.New("journal: Replay after Start")
	}
	segments := append([]segmentInfo(nil), j.segments...)
	snapSeq := j.snapSeq
	j.mu.Unlock()

	recovered := uint64(0)
	for _, seg := range segments {
		var ferr error
		scan, err := scanSegment(seg.path, func(seq uint64, payload []byte) bool {
			if seq <= snapSeq {
				return true // folded into the snapshot already
			}
			if ferr = fn(seq, payload); ferr != nil {
				return false
			}
			recovered++
			return true
		})
		switch {
		case err != nil:
			return err
		case ferr != nil:
			return ferr
		case scan.torn:
			// The sealed prefix re-read corrupt: disk went bad between
			// Open and Replay. Surface it.
			return fmt.Errorf("%w: replay %s: torn or corrupt at byte %d", ErrCorrupt, seg.path, scan.valid)
		}
	}
	j.m.recordsRecovered.Add(recovered)
	return nil
}

// Store is the state a journal keeps durable, as Recover drives it: the
// trader and the browser directory both implement it.
type Store interface {
	// RestoreSnapshot replaces the state by a JournalSnapshot payload.
	RestoreSnapshot(payload []byte) error
	// ReplayRecord applies one logged record; it must be idempotent.
	ReplayRecord(seq uint64, payload []byte) error
	// JournalSnapshot folds the current state into a snapshot payload;
	// the journal calls it under its write lock (Compact, Cut).
	JournalSnapshot() ([]byte, error)
	// SetJournal attaches the started journal: mutations append from
	// here on.
	SetJournal(j *Journal)
}

// Recover brings s to the journalled state and the journal into
// service, in the only order that is correct: restore the snapshot,
// replay the records past it, Start, attach the journal to s, and
// compact. The closing compaction re-anchors recovery in one file and
// snapshots state that exists only in boot-time memory (a daemon's
// preloaded types are never journalled as records), so a crash before
// the first background compaction loses none of it.
func (j *Journal) Recover(s Store) error {
	if snap, ok := j.Snapshot(); ok {
		if err := s.RestoreSnapshot(snap); err != nil {
			return fmt.Errorf("journal: recover %s: %w", j.dir, err)
		}
	}
	if err := j.Replay(s.ReplayRecord); err != nil {
		return fmt.Errorf("journal: recover %s: %w", j.dir, err)
	}
	if err := j.Start(s.JournalSnapshot); err != nil {
		return err
	}
	s.SetJournal(j)
	return j.Compact()
}

// Start seals recovery and enables appends: the append segment is
// opened (continuing the newest recovered segment or starting a fresh
// one), and the background fsync ticker and compactor are launched.
// snapshotFn folds current state into a snapshot payload for
// compaction; nil disables compaction.
func (j *Journal) Start(snapshotFn func() ([]byte, error)) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if j.started {
		return errors.New("journal: already started")
	}
	j.snapshotFn = snapshotFn
	// Release the recovery buffer; Snapshot is a recovery-phase call.
	j.snapPayload, j.hasSnap = nil, false

	if n := len(j.segments); n > 0 {
		f, err := os.OpenFile(j.segments[n-1].path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		info, err := f.Stat()
		if err != nil {
			_ = f.Close()
			return fmt.Errorf("journal: %w", err)
		}
		j.seg, j.segSize = f, info.Size()
	} else if err := j.openSegmentLocked(j.seq + 1); err != nil {
		return err
	}
	j.started = true
	j.recoverySecs.Store(math.Float64bits(time.Since(j.openedAt).Seconds()))

	if j.opts.Fsync == FsyncInterval {
		j.bg.Add(1)
		go j.syncLoop()
	}
	if j.opts.CompactEvery > 0 && j.snapshotFn != nil {
		j.bg.Add(1)
		go j.compactLoop()
	}
	return nil
}

// openSegmentLocked creates the segment whose first record will carry
// startSeq and makes it the append target; the caller holds j.mu.
func (j *Journal) openSegmentLocked(startSeq uint64) error {
	path := filepath.Join(j.dir, fmt.Sprintf("%s%016x%s", segPrefix, startSeq, segSuffix))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		_ = f.Close()
		return fmt.Errorf("journal: %w", err)
	}
	if j.seg != nil {
		// Rotation must not strand unsynced records: Sync/Close and the
		// interval ticker only reach the *current* segment's descriptor,
		// so a dirty outgoing segment is flushed here before it is closed
		// — otherwise its tail would stay in the page cache forever.
		// FsyncNever keeps its contract and leaves flushing to the OS.
		if j.dirty && j.opts.Fsync != FsyncNever {
			if err := j.syncLocked(); err != nil {
				_ = f.Close()
				_ = os.Remove(path)
				return err
			}
		}
		_ = j.seg.Close()
	}
	j.seg, j.segSize = f, int64(len(segMagic))
	j.segments = append(j.segments, segmentInfo{path: path, startSeq: startSeq})
	return nil
}

// Commit is one step of the write-ahead order: encode appends a record
// to dst (a buffer the journal reuses), the journal appends it under
// the next sequence number — on stable storage first under FsyncAlways
// — then apply runs its effect (nil: one already in place). An encode
// or append failure leaves apply unrun. On a nil journal Commit runs
// apply alone and never calls encode.
func (j *Journal) Commit(encode func(dst []byte) ([]byte, error), apply func() error) (uint64, error) {
	if j == nil {
		return 0, run(apply)
	}
	j.writeMu.Lock()
	defer j.writeMu.Unlock()
	rec, err := encode(j.rec[:0])
	if err != nil {
		return 0, err
	}
	j.rec = rec
	seq, err := j.append(0, rec)
	if err != nil {
		return 0, err
	}
	return seq, run(apply)
}

// CommitAt is Commit under an explicit sequence number — the
// replication apply path, where a follower persists records with the
// sequence numbers the leader assigned. seq must exceed the journal's
// last sequence number; gaps are allowed (a snapshot install leaps the
// sequence forward past compacted history).
func (j *Journal) CommitAt(seq uint64, payload []byte, apply func() error) error {
	if j == nil {
		return run(apply)
	}
	j.writeMu.Lock()
	defer j.writeMu.Unlock()
	if _, err := j.append(seq, payload); err != nil {
		return err
	}
	return run(apply)
}

// Append is Commit without an effect.
func (j *Journal) Append(payload []byte) (uint64, error) {
	return j.Commit(func(dst []byte) ([]byte, error) { return append(dst, payload...), nil }, nil)
}

// run calls f, a caller's effect; nil is none.
func run(f func() error) error {
	if f == nil {
		return nil
	}
	return f()
}

// append writes one framed record under the next sequence number
// (at==0) or the caller's (at>0); the caller holds writeMu.
func (j *Journal) append(at uint64, payload []byte) (uint64, error) {
	j.mu.Lock()
	if err := j.writableLocked(); err != nil {
		j.mu.Unlock()
		return 0, err
	}
	seq := j.seq + 1
	if at > 0 {
		if at <= j.seq {
			j.mu.Unlock()
			return 0, fmt.Errorf("journal: CommitAt seq %d not past last seq %d", at, j.seq)
		}
		seq = at
	}
	if j.segSize >= j.opts.SegmentSize {
		if err := j.openSegmentLocked(seq); err != nil {
			j.mu.Unlock()
			j.flushFaultNotify() // rotation syncs the outgoing segment; that sync may have latched
			return 0, err
		}
	}
	j.seq = seq
	j.frame = appendFrame(j.frame[:0], seq, payload)
	frame := j.frame
	var n int
	err := j.fault(FaultWrite)
	switch {
	case err == nil:
		n, err = j.seg.Write(frame)
	case errors.Is(err, ErrTornWrite):
		// Simulated torn write: half the frame reaches the segment —
		// the shape a crash mid-write leaves on disk — and the append
		// fails.
		n, _ = j.seg.Write(frame[:len(frame)/2])
	}
	j.segSize += int64(n)
	if err != nil {
		// A failed record write is as terminal as a failed fsync: the
		// segment tail is in an unknown state, so the journal latches
		// fail-stop rather than risk framing later records after garbage.
		err = fmt.Errorf("journal: append: %w", err)
		j.latchLocked(err)
		j.mu.Unlock()
		j.flushFaultNotify()
		return 0, err
	}
	j.dirty = true
	j.sinceSnap++
	j.notifyLocked()
	kick := j.opts.CompactEvery > 0 && j.sinceSnap >= j.opts.CompactEvery
	var syncErr error
	if j.opts.Fsync == FsyncAlways {
		syncErr = j.syncLocked()
	}
	j.mu.Unlock()

	j.m.appends.Inc()
	j.m.appendBytes.Add(uint64(n))
	if syncErr != nil {
		j.flushFaultNotify()
		return 0, syncErr
	}
	if kick {
		select {
		case j.kick <- struct{}{}:
		default:
		}
	}
	return seq, nil
}

// notifyLocked wakes WaitFor blockers; the caller holds j.mu.
func (j *Journal) notifyLocked() {
	if j.notify != nil {
		close(j.notify)
		j.notify = nil
	}
}

// WaitFor blocks until the journal's last sequence number exceeds
// afterSeq (reporting true) or until timeout elapses or the journal
// closes (reporting false). It is the long-poll primitive under the
// replication pull endpoint: a caught-up follower parks here instead of
// busy-polling.
func (j *Journal) WaitFor(afterSeq uint64, timeout time.Duration) bool {
	if j == nil {
		return false
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		j.mu.Lock()
		if j.seq > afterSeq {
			j.mu.Unlock()
			return true
		}
		if j.closed || !j.started {
			j.mu.Unlock()
			return false
		}
		if j.notify == nil {
			j.notify = make(chan struct{})
		}
		ch := j.notify
		j.mu.Unlock()
		select {
		case <-ch:
		case <-deadline.C:
			j.mu.Lock()
			ok := j.seq > afterSeq
			j.mu.Unlock()
			return ok
		}
	}
}

// ReadFrom returns up to max records (unlimited when max <= 0) with
// sequence numbers greater than afterSeq, in order — the replication
// read path. It returns ErrCompacted when afterSeq lies below the
// compaction watermark: those records were folded into the snapshot, so
// the caller must ship the snapshot instead. Reading is safe
// concurrently with appends and compaction: a partially written tail
// is end-of-log, never an error, and so is a segment that compaction
// deletes under the read — or ErrCompacted, when nothing was read.
func (j *Journal) ReadFrom(afterSeq uint64, max int) ([]Record, error) {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil, ErrClosed
	}
	snapSeq, last := j.snapSeq, j.seq
	segments := append([]segmentInfo(nil), j.segments...)
	j.mu.Unlock()

	if afterSeq < snapSeq {
		return nil, ErrCompacted
	}
	if afterSeq >= last {
		return nil, nil
	}
	var out []Record
	full := func() bool { return max > 0 && len(out) >= max }
	for i, seg := range segments {
		// A segment is skippable when its successor starts at or below
		// the first wanted sequence number.
		if i+1 < len(segments) && segments[i+1].startSeq <= afterSeq+1 {
			continue
		}
		scan, err := scanSegment(seg.path, func(seq uint64, payload []byte) bool {
			if seq > afterSeq {
				out = append(out, Record{Seq: seq, Payload: payload})
			}
			return !full()
		})
		if errors.Is(err, os.ErrNotExist) {
			// Compaction deleted the segment after the list above was
			// taken. Its records are at or below the new watermark, which
			// passed afterSeq (afterSeq < last ≤ watermark): what was read
			// is a gap-free prefix, and with none read the caller must
			// ship the snapshot.
			if len(out) == 0 {
				return nil, ErrCompacted
			}
			break
		}
		if err != nil {
			return nil, err
		}
		// A torn tail is an append in flight, not corruption.
		if scan.torn || full() {
			break
		}
	}
	return out, nil
}

// Install replaces the log and the state with a replication leader's
// snapshot, as one step of the write-ahead order: the payload becomes
// the snapshot at watermark seq, every segment is deleted, the sequence
// number moves to seq, and restore replaces the state. seq must not be
// behind the local tail unless rewind is set — the rejoin of a deposed
// leader, whose divergent tail, acknowledged to no one, goes with the
// rest. On a nil journal Install runs restore alone.
func (j *Journal) Install(payload []byte, seq uint64, rewind bool, restore func() error) error {
	if j == nil {
		return run(restore)
	}
	j.compactMu.Lock()
	defer j.compactMu.Unlock()
	j.writeMu.Lock()
	defer j.writeMu.Unlock()
	j.mu.Lock()
	err := j.writableLocked()
	if err == nil && seq < j.seq && !rewind {
		err = fmt.Errorf("journal: snapshot watermark %d behind last seq %d", seq, j.seq)
	}
	j.mu.Unlock()
	if err != nil {
		return err
	}
	if err := j.writeSnapshot(payload, seq); err != nil {
		return err
	}

	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return ErrClosed
	}
	old := j.segments
	j.segments = nil
	if j.seg != nil {
		_ = j.seg.Close()
		j.seg = nil
	}
	// Old segments go before the new one is created: a rotation may have
	// left an empty segment already carrying the new segment's name, and
	// a crash in the gap recovers cleanly from the installed snapshot.
	for _, seg := range old {
		_ = os.Remove(seg.path)
	}
	j.dirty = false
	j.snapSeq, j.seq = seq, seq
	j.snapLive = true
	j.sinceSnap = 0
	err = j.openSegmentLocked(seq + 1)
	j.notifyLocked()
	j.mu.Unlock()
	if err != nil {
		return err
	}
	return run(restore)
}

// writableLocked reports why the log takes no write now; the caller
// holds j.mu.
func (j *Journal) writableLocked() error {
	switch {
	case j.closed:
		return ErrClosed
	case !j.started:
		return ErrNotStarted
	case j.failed != nil:
		return fmt.Errorf("%w: %v", ErrFailStop, j.failed)
	}
	return nil
}

// Sync forces appended records to stable storage (the drain hook's
// final flush).
func (j *Journal) Sync() error {
	j.mu.Lock()
	if j.closed || j.seg == nil {
		j.mu.Unlock()
		return nil
	}
	err := j.syncLocked()
	j.mu.Unlock()
	j.flushFaultNotify()
	return err
}

func (j *Journal) syncLocked() error {
	if j.failed != nil {
		return fmt.Errorf("%w: %v", ErrFailStop, j.failed)
	}
	if !j.dirty {
		return nil
	}
	start := time.Now()
	err := j.fault(FaultFsync)
	if err == nil {
		err = j.seg.Sync()
	}
	j.m.fsyncs.Inc()
	j.m.fsyncSeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		err = fmt.Errorf("journal: fsync: %w", err)
		j.m.fsyncErrors.Inc()
		j.latchLocked(err)
		return err
	}
	j.dirty = false
	return nil
}

// fault consults the injection hook for one disk operation.
func (j *Journal) fault(op string) error {
	if j.opts.FaultHook == nil {
		return nil
	}
	return j.opts.FaultHook(op)
}

// latchLocked records the first unrecoverable disk error: the journal
// goes fail-stop — further appends and syncs are rejected — because a
// record acknowledged after a failed write or fsync could be silently
// lost. The caller holds j.mu.
func (j *Journal) latchLocked(err error) {
	if j.failed != nil {
		return
	}
	j.failed = err
	j.faultPending = true
	j.notifyLocked() // wake WaitFor blockers: this log will not advance
}

// flushFaultNotify delivers the one-shot OnFault callback outside j.mu
// (the observer typically demotes a trader, which takes its own locks).
func (j *Journal) flushFaultNotify() {
	j.mu.Lock()
	fire := j.faultPending && j.onFault != nil
	if fire {
		j.faultPending = false // leave pending if no observer yet: SetOnFault fires it
	}
	err, fn := j.failed, j.onFault
	j.mu.Unlock()
	if fire {
		fn(err)
	}
}

// SetOnFault registers an observer invoked once when the journal
// latches fail-stop. The callback runs outside the journal's locks; a
// journal that already failed fires it immediately.
func (j *Journal) SetOnFault(fn func(error)) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.onFault = fn
	fire := j.failed != nil && fn != nil
	if fire {
		j.faultPending = false
	}
	err := j.failed
	j.mu.Unlock()
	if fire {
		fn(err)
	}
}

// Failed reports the latched fail-stop error, nil while healthy. Once
// non-nil the journal rejects appends and syncs; reads keep working.
func (j *Journal) Failed() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.failed
}

// syncLoop is the FsyncInterval background ticker. A failed background
// sync is never discarded: syncLocked bumps
// cosm_journal_fsync_errors_total and latches the journal fail-stop,
// and Sync delivers the OnFault notification — the next Commit returns
// ErrFailStop instead of acknowledging a record the disk may not hold.
func (j *Journal) syncLoop() {
	defer j.bg.Done()
	t := time.NewTicker(j.opts.fsyncEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := j.Sync(); err != nil {
				return // latched fail-stop: nothing further to sync
			}
		case <-j.stop:
			return
		}
	}
}

// compactLoop runs snapshot compaction whenever the append path signals
// the threshold was crossed.
func (j *Journal) compactLoop() {
	defer j.bg.Done()
	for {
		select {
		case <-j.kick:
			_ = j.Compact()
		case <-j.stop:
			return
		}
	}
}

// Compact folds the log into a snapshot: it syncs and rotates to a
// fresh segment, folds the state at exactly that watermark (the cut),
// installs the snapshot atomically, and deletes every segment fully
// covered by the watermark.
func (j *Journal) Compact() error {
	j.compactMu.Lock()
	defer j.compactMu.Unlock()
	payload, watermark, err := j.cut(true)
	if err != nil {
		return err
	}
	// A failed snapshot write does not latch: the log remains the
	// authoritative copy and compaction is simply retried later.
	if err := j.writeSnapshot(payload, watermark); err != nil {
		return err
	}
	j.m.compactions.Inc()

	// Drop segments whose every record is ≤ watermark: those are the
	// segments followed by another segment starting at or below
	// watermark+1.
	j.mu.Lock()
	j.snapSeq = watermark
	j.snapLive = true
	keep := j.segments[:0]
	for i, seg := range j.segments {
		covered := i+1 < len(j.segments) && j.segments[i+1].startSeq <= watermark+1
		if covered {
			_ = os.Remove(seg.path)
			continue
		}
		keep = append(keep, seg)
	}
	j.segments = keep
	j.mu.Unlock()
	return nil
}

// Cut folds the state into a snapshot payload for a replication
// follower and returns it with its watermark: the state at exactly that
// sequence number. A nil journal has none (ErrNotStarted).
func (j *Journal) Cut() ([]byte, uint64, error) {
	if j == nil {
		return nil, 0, ErrNotStarted
	}
	return j.cut(false)
}

// cut reads the watermark and folds the state under the write lock.
// seal (compaction) first syncs the log — the snapshot must never be
// the only copy of records left in the page cache — and rotates, so
// later appends land in a segment the cleanup keeps.
func (j *Journal) cut(seal bool) ([]byte, uint64, error) {
	j.writeMu.Lock()
	defer j.writeMu.Unlock()
	j.mu.Lock()
	if j.closed || !j.started {
		j.mu.Unlock()
		return nil, 0, ErrClosed
	}
	fn := j.snapshotFn
	if fn == nil {
		j.mu.Unlock()
		return nil, 0, errors.New("journal: no snapshot function")
	}
	if seal {
		if err := j.syncLocked(); err != nil {
			j.mu.Unlock()
			j.flushFaultNotify()
			return nil, 0, err
		}
		// An empty append segment needs no rotation (and rotating would
		// recreate its own name): it already holds no record ≤ watermark.
		if j.segSize > int64(len(segMagic)) {
			if err := j.openSegmentLocked(j.seq + 1); err != nil {
				j.mu.Unlock()
				return nil, 0, err
			}
		}
		j.sinceSnap = 0
	}
	watermark := j.seq
	j.mu.Unlock()
	payload, err := fn()
	if err != nil {
		return nil, 0, fmt.Errorf("journal: snapshot state: %w", err)
	}
	return payload, watermark, nil
}

// writeSnapshot installs payload at watermark seq as the snapshot file
// (write temp, fsync, rename); the caller holds compactMu.
func (j *Journal) writeSnapshot(payload []byte, seq uint64) error {
	if err := j.fault(FaultSnapshot); err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	tmp := filepath.Join(j.dir, snapTempName)
	if err := os.WriteFile(tmp, encodeSnapshot(payload, seq), 0o644); err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	if err := syncFile(tmp); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(j.dir, snapName)); err != nil {
		return fmt.Errorf("journal: install snapshot: %w", err)
	}
	return nil
}

func syncFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync %s: %w", path, err)
	}
	return nil
}

// Stats returns a snapshot of the journal's bookkeeping (zero for a nil
// journal).
func (j *Journal) Stats() Stats {
	if j == nil {
		return Stats{}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return Stats{
		LastSeq:     j.seq,
		SnapshotSeq: j.snapSeq,
		HasSnapshot: j.snapLive,
		Segments:    len(j.segments),
	}
}

// Close stops the background goroutines, flushes and syncs the append
// segment, and closes it. Safe to call multiple times; nil-safe so
// daemons can `defer j.Close()` unconditionally.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	close(j.stop)
	j.notifyLocked() // release WaitFor blockers
	j.mu.Unlock()
	j.bg.Wait()

	j.mu.Lock()
	var err error
	if j.seg != nil {
		// An already fail-stopped journal closes without a final sync:
		// the error was surfaced when it latched, and Close is cleanup.
		if j.failed == nil {
			err = j.syncLocked()
		}
		if cerr := j.seg.Close(); err == nil {
			err = cerr
		}
		j.seg = nil
	}
	j.mu.Unlock()
	j.flushFaultNotify()
	if err != nil {
		return fmt.Errorf("journal: close: %w", err)
	}
	return nil
}
