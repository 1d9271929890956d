package journal

import "cosm/internal/obs"

// metrics are the cosm_journal_* instruments of one Journal, held by
// value and called directly: obs instruments are nil-safe and a nil
// registry binds nil instruments, so the journal never branches on
// whether observability is configured.
type metrics struct {
	appends            *obs.Counter
	appendBytes        *obs.Counter
	fsyncs             *obs.Counter
	fsyncSeconds       *obs.Histogram
	fsyncErrors        *obs.Counter
	compactions        *obs.Counter
	recordsRecovered   *obs.Counter
	recordsTruncated   *obs.Counter
	snapshotsDiscarded *obs.Counter
}

func bindMetrics(reg *obs.Registry) metrics {
	return metrics{
		appends:            reg.Counter("cosm_journal_appends_total", "Records appended to the write-ahead log."),
		appendBytes:        reg.Counter("cosm_journal_append_bytes_total", "Bytes appended to the write-ahead log (framing included)."),
		fsyncs:             reg.Counter("cosm_journal_fsyncs_total", "fsync calls issued by the journal."),
		fsyncSeconds:       reg.Histogram("cosm_journal_fsync_seconds", "fsync latency in seconds.", obs.DefBuckets),
		fsyncErrors:        reg.Counter("cosm_journal_fsync_errors_total", "fsync failures; each latches the journal fail-stop."),
		compactions:        reg.Counter("cosm_journal_compactions_total", "Log-into-snapshot compactions completed."),
		recordsRecovered:   reg.Counter("cosm_journal_records_recovered", "Records replayed from the log during recovery."),
		recordsTruncated:   reg.Counter("cosm_journal_records_truncated", "Records cut at a torn or corrupt log tail during recovery."),
		snapshotsDiscarded: reg.Counter("cosm_journal_snapshots_discarded_total", "Corrupt snapshots ignored during recovery (full log replay instead)."),
	}
}
