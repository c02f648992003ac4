package obs

import (
	"react/internal/journal"
	"react/internal/metrics"
)

// fsyncHistogramWidth/Buckets shape the group-commit latency histogram:
// 0.5 ms buckets up to 100 ms, overflow beyond. A healthy fsync on local
// storage lands in the first few buckets; a commit in the overflow bucket
// means the durability window has blown past the configured interval.
const (
	fsyncHistogramWidth   = 0.0005
	fsyncHistogramBuckets = 200
)

// compactionHistogramWidth/Buckets shape the snapshot-rebuild duration
// histogram: 10 ms buckets up to 2 s, overflow beyond. A rebuild runs beside
// the group commits, so its length is not the loss window; it bounds how
// long the sealed segment lingers and how stale the snapshot is.
const (
	compactionHistogramWidth   = 0.01
	compactionHistogramBuckets = 200
)

// RegisterJournal adds a write-ahead journal's counters, depth gauges, and
// group-commit fsync latency and compaction duration histograms to reg,
// plus constant gauges for what this process recovered at startup. It
// installs the store's fsync and compaction observers; call it once per
// store.
func RegisterJournal(reg *metrics.Registry, store *journal.Store, labels ...metrics.Label) error {
	snap := func(read func(journal.Stats) float64) func() float64 {
		return func() float64 { return read(store.Stats()) }
	}
	counters := []struct {
		name, help string
		read       func(journal.Stats) float64
	}{
		{"react_journal_records_total", "WAL records appended since startup", func(s journal.Stats) float64 { return float64(s.Records) }},
		{"react_journal_bytes_total", "WAL frame bytes appended since startup", func(s journal.Stats) float64 { return float64(s.Bytes) }},
		{"react_journal_fsyncs_total", "group commits performed", func(s journal.Stats) float64 { return float64(s.Fsyncs) }},
		{"react_journal_fsync_seconds_total", "cumulative group-commit fsync latency", func(s journal.Stats) float64 { return float64(s.FsyncNanos) / 1e9 }},
		{"react_journal_compactions_total", "snapshot compactions performed", func(s journal.Stats) float64 { return float64(s.Compactions) }},
	}
	for _, c := range counters {
		if err := reg.RegisterCounterFunc(c.name, c.help, snap(c.read), labels...); err != nil {
			return err
		}
	}
	gauges := []struct {
		name, help string
		read       func(journal.Stats) float64
	}{
		{"react_journal_pending_bytes", "bytes buffered but not yet durable (the loss window)", func(s journal.Stats) float64 { return float64(s.PendingBytes) }},
		{"react_journal_segment_bytes", "bytes in the active WAL segment since the last compaction", func(s journal.Stats) float64 { return float64(s.SegmentBytes) }},
		{"react_journal_snapshot_bytes", "size of the current snapshot; the segment is compacted once it grows this large", func(s journal.Stats) float64 { return float64(s.SnapshotBytes) }},
		{"react_journal_last_seq", "highest sequence number appended", func(s journal.Stats) float64 { return float64(s.LastSeq) }},
		{"react_journal_failed", "1 after a sticky I/O failure stopped journaling", func(s journal.Stats) float64 {
			if s.Failed {
				return 1
			}
			return 0
		}},
	}
	for _, g := range gauges {
		if err := reg.RegisterGauge(g.name, g.help, snap(g.read), labels...); err != nil {
			return err
		}
	}

	// Recovery outcome: fixed for the life of the process, exported so a
	// scrape after a crash-restart shows what came back (and what the torn
	// tail cost).
	sum := store.Summary()
	recovered := []struct {
		name, help string
		value      float64
	}{
		{"react_journal_recovered_tasks", "tasks recovered from the journal at startup", float64(sum.Tasks)},
		{"react_journal_recovered_workers", "worker profiles recovered from the journal at startup", float64(sum.Workers)},
		{"react_journal_recovered_tail_records", "WAL records replayed past the snapshot at startup", float64(sum.TailRecords)},
		{"react_journal_recovery_torn_bytes", "unreadable bytes truncated from the crash tail at startup", float64(sum.TornBytes)},
	}
	for _, r := range recovered {
		r := r
		if err := reg.RegisterGauge(r.name, r.help, func() float64 { return r.value }, labels...); err != nil {
			return err
		}
	}

	histograms := []struct {
		name, help  string
		width       float64
		buckets     int
		setObserver func(func(float64))
	}{
		{"react_journal_fsync_latency_seconds", "group-commit fsync latency per flush",
			fsyncHistogramWidth, fsyncHistogramBuckets, store.SetFsyncObserver},
		{"react_journal_compaction_seconds", "snapshot rebuild duration per compaction, beside the group commits",
			compactionHistogramWidth, compactionHistogramBuckets, store.SetCompactionObserver},
	}
	for _, hs := range histograms {
		h, err := metrics.NewHistogram(hs.width, hs.buckets)
		if err != nil {
			panic(err) // constants above are valid by construction
		}
		if err := reg.RegisterHistogram(hs.name, hs.help, h, labels...); err != nil {
			return err
		}
		hs.setObserver(h.Observe)
	}
	return nil
}
