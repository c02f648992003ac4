package journal

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"react/internal/clock"
)

// Store is the durable journal for one region server: a sequenced WAL of
// segment files plus a snapshot, under a single data directory.
//
// Appends are memory-only — frames accumulate in a buffer under a mutex,
// so the journal's spine tap can call Append under the task store's lock
// without ever touching the disk. A flusher goroutine group-commits
// the buffer: it writes and fsyncs on a time interval
// (Options.FsyncInterval) or as soon as the buffer passes fsyncBytes. The durability window is
// therefore one fsync interval; the wire layer's resubmit-on-unknown
// reconciliation covers exactly that window (see docs/PERSISTENCE.md).
//
// When a commit leaves the active segment at least as large as the last
// snapshot (and Options.CompactBytes), the flusher seals the segment and a
// compactor goroutine rebuilds the snapshot OFFLINE, beside the commits, by
// replaying the sealed, immutable segment into the state the previous
// snapshot holds — never by reading the live engine — so the snapshot is
// exact at a known sequence boundary. Sizing the trigger by the snapshot
// keeps the bytes a compaction writes within the WAL bytes appended since
// the last one.
type Store struct {
	dir  string
	clk  clock.Clock
	opts Options

	// mu guards the append state. Hold it only for memory work: the spine
	// tap calls Append under the task store's lock, so anything slower than a
	// buffer append here would serialize the engine on the disk.
	mu          sync.Mutex
	seq         uint64 // last assigned sequence number
	buf         []byte // framed records not yet written
	pendingRecs int
	f           *os.File // active segment
	activePath  string
	err         error // sticky: first I/O failure, journaling stops
	closed      bool

	// flushMu serializes the commit path: a group commit, and sealing the
	// active segment once a commit crosses the trigger. Never acquired
	// while holding mu; flush takes the buffer under mu, then writes.
	flushMu     sync.Mutex
	spare       []byte // the buffer the last group commit wrote out, swapped back in by the next
	lastFlushed uint64 // highest seq durable in the active segment

	// compacting holds a token while a compaction is in flight — at most
	// one. The token's holder owns the fields below: it seals segments
	// (under flushMu as well) and rebuilds the snapshot from them holding
	// no mutex at all, so commits go on beside the rebuild.
	compacting chan struct{}
	snapPath   string
	snapSeq    uint64
	sealed     []string // sealed segments not yet folded into the snapshot
	sealedSeq  uint64   // last seq in the sealed segments; snapSeq when there are none
	// replica is the State compaction last wrote out as the snapshot at
	// snapSeq, kept so the next compaction replays only the sealed segments
	// into it instead of re-reading its own snapshot. Derived from durable
	// bytes alone (snapshot + sealed segments), never from the live engine;
	// nil before the first compaction and after any compaction error, when
	// readSnapshot rebuilds it.
	replica *State

	kick chan struct{}
	done chan struct{}
	wg   sync.WaitGroup

	recovered *State
	summary   Summary

	records     atomic.Int64
	bytes       atomic.Int64
	fsyncs      atomic.Int64
	fsyncNanos  atomic.Int64
	compactions atomic.Int64
	segBytes    atomic.Int64
	snapBytes   atomic.Int64 // size of the current snapshot file
	failed      atomic.Bool
	fsyncObs    atomic.Value // func(seconds float64)
	compactObs  atomic.Value // func(seconds float64)
}

// Options configures Open.
type Options struct {
	// Dir is the data directory; created if absent.
	Dir string
	// Clock times fsync latency (never the pacing ticker). Defaults to
	// the system clock.
	Clock clock.Clock
	// FsyncInterval bounds how long an acknowledged append may sit in
	// memory before it is durable. Default 25ms.
	FsyncInterval time.Duration
	// CompactBytes is the floor of the compaction trigger: the active
	// segment is sealed and the snapshot rebuilt once the segment reaches
	// this size or the size of the current snapshot, whichever is larger.
	// Default 4MiB.
	CompactBytes int64
	// Logf receives recovery and failure reports. Defaults to a log/slog
	// warning with component=journal and dir attributes.
	Logf func(format string, args ...any)
}

const (
	defaultFsyncInterval = 25 * time.Millisecond
	// fsyncBytes forces an early group commit once this many buffered
	// bytes accumulate.
	fsyncBytes = 256 << 10
	// maxSpareBytes keeps one oversized burst (appends pile up behind a
	// slow fsync) from pinning its buffer as the spare for good.
	maxSpareBytes       = 4 * fsyncBytes
	defaultCompactBytes = 4 << 20
)

// Summary describes what Open recovered.
type Summary struct {
	SnapshotSeq uint64 // sequence boundary of the snapshot recovery started from
	TailRecords int    // WAL records replayed past the snapshot
	TornBytes   int    // unreadable bytes truncated from the crash tail
	Tasks       int    // tasks in the recovered state
	Workers     int    // worker profiles in the recovered state
	LastSeq     uint64 // highest sequence number recovered
}

// Stats is a point-in-time counter snapshot for the observability plane.
type Stats struct {
	Records       int64 // records appended since Open
	Bytes         int64 // frame bytes appended since Open
	Fsyncs        int64 // group commits performed
	FsyncNanos    int64 // cumulative fsync latency
	Compactions   int64 // snapshot rebuilds performed
	PendingBytes  int   // bytes buffered, not yet durable
	SegmentBytes  int64 // bytes in the active segment
	SnapshotBytes int64 // size of the current snapshot
	LastSeq       uint64
	Failed        bool // sticky I/O failure: journaling has stopped
}

var errClosed = errors.New("journal: store closed")

func segmentName(firstSeq uint64) string { return fmt.Sprintf("wal-%016x.log", firstSeq) }

// Open recovers whatever the directory holds — snapshot, sealed segments,
// a possibly-torn active segment — and leaves a clean baseline: a fresh
// snapshot at the recovered boundary and a new empty active segment, with
// every older file deleted. Recovery either replays cleanly or fails
// loudly (ErrCorrupt); it never silently drops a record.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, errors.New("journal: Options.Dir is required")
	}
	if opts.Clock == nil {
		opts.Clock = clock.System{}
	}
	if opts.FsyncInterval <= 0 {
		opts.FsyncInterval = defaultFsyncInterval
	}
	if opts.CompactBytes <= 0 {
		opts.CompactBytes = defaultCompactBytes
	}
	if opts.Logf == nil {
		logger := slog.Default().With("component", "journal", "dir", opts.Dir)
		opts.Logf = func(format string, args ...any) { logger.Warn(fmt.Sprintf(format, args...)) }
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: create data dir: %w", err)
	}

	snapPath, segs, leftovers, err := scanDir(opts.Dir)
	if err != nil {
		return nil, err
	}
	st := NewState()
	var snapSeq uint64
	if snapPath != "" {
		if st, snapSeq, err = readSnapshot(snapPath); err != nil {
			return nil, err
		}
	}
	last, tailRecords, torn, err := replaySegments(st, snapSeq, segs, true)
	if err != nil {
		return nil, err
	}

	// Write the recovered state back as a fresh snapshot and start a new
	// empty segment, then delete everything older. Recovery is thereby
	// idempotent: a crash at any point here re-recovers to the same state.
	newSnap, snapBytes, err := writeSnapshot(opts.Dir, st, last)
	if err != nil {
		return nil, err
	}
	activePath := filepath.Join(opts.Dir, segmentName(last+1))
	f, err := os.OpenFile(activePath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: create segment: %w", err)
	}
	for _, stale := range append(append(leftovers, segs...), snapPath) {
		if stale == "" || stale == newSnap || stale == activePath {
			continue
		}
		if err := os.Remove(stale); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: remove stale %s: %w", filepath.Base(stale), err)
		}
	}
	if err := syncDir(opts.Dir); err != nil {
		f.Close()
		return nil, err
	}

	s := &Store{
		dir:         opts.Dir,
		clk:         opts.Clock,
		opts:        opts,
		seq:         last,
		f:           f,
		activePath:  activePath,
		lastFlushed: last,
		compacting:  make(chan struct{}, 1),
		snapPath:    newSnap,
		snapSeq:     last,
		sealedSeq:   last,
		kick:        make(chan struct{}, 1),
		done:        make(chan struct{}),
		recovered:   st,
		summary: Summary{
			SnapshotSeq: snapSeq,
			TailRecords: tailRecords,
			TornBytes:   torn,
			Tasks:       len(st.Tasks),
			Workers:     st.Profiles.Size(),
			LastSeq:     last,
		},
	}
	s.snapBytes.Store(snapBytes)
	if torn > 0 {
		opts.Logf("journal: truncated %d unreadable bytes from the crash tail (records past the last group commit)", torn)
	}
	s.wg.Add(1)
	go s.flusher()
	return s, nil
}

// scanDir classifies the directory contents: the newest snapshot, the
// segment files in sequence order, and older snapshots recovery should
// delete once done. An interrupted snapshot.tmp is not listed: the snapshot
// Open writes next truncates it and renames it away.
func scanDir(dir string) (snapPath string, segs, leftovers []string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", nil, nil, fmt.Errorf("journal: scan data dir: %w", err)
	}
	type seg struct {
		first uint64
		path  string
	}
	var segList []seg
	var snapSeq uint64
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "snapshot-") && strings.HasSuffix(name, ".snap"):
			seqHex := strings.TrimSuffix(strings.TrimPrefix(name, "snapshot-"), ".snap")
			n, perr := strconv.ParseUint(seqHex, 16, 64)
			if perr != nil {
				return "", nil, nil, fmt.Errorf("journal: unparseable snapshot name %q", name)
			}
			if p := filepath.Join(dir, name); snapPath == "" || n > snapSeq {
				if snapPath != "" {
					leftovers = append(leftovers, snapPath)
				}
				snapPath, snapSeq = p, n
			} else {
				leftovers = append(leftovers, p)
			}
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			seqHex := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log")
			n, perr := strconv.ParseUint(seqHex, 16, 64)
			if perr != nil {
				return "", nil, nil, fmt.Errorf("journal: unparseable segment name %q", name)
			}
			segList = append(segList, seg{first: n, path: filepath.Join(dir, name)})
		}
	}
	sort.Slice(segList, func(i, j int) bool { return segList[i].first < segList[j].first })
	for _, sg := range segList {
		segs = append(segs, sg.path)
	}
	return snapPath, segs, leftovers, nil
}

// replaySegments applies every record after snapSeq to st, enforcing
// sequence contiguity. Records at or below snapSeq are leftovers of a
// compaction that crashed before deleting its inputs and are skipped. A
// torn tail is tolerated only on the final segment when allowTornTail is
// set (Open's crash window); anywhere else unreadable bytes are ErrCorrupt.
// Each record is applied as its frame is walked, so after an error st stands
// somewhere inside the failing segment: both callers drop it.
func replaySegments(st *State, snapSeq uint64, segs []string, allowTornTail bool) (last uint64, records, torn int, err error) {
	last = snapSeq
	for i, path := range segs {
		base := filepath.Base(path)
		f, oerr := os.Open(path)
		if oerr != nil {
			return last, records, torn, fmt.Errorf("journal: read segment: %w", oerr)
		}
		t, werr := walkFrames(f, func(rec *Record) error {
			if rec.Seq <= snapSeq {
				return nil
			}
			if rec.Seq != last+1 {
				return fmt.Errorf("%w: sequence gap — recovered through %d but the log continues at %d",
					ErrCorrupt, last, rec.Seq)
			}
			if aerr := st.Apply(*rec); aerr != nil {
				return aerr
			}
			last = rec.Seq
			records++
			return nil
		})
		f.Close() // only read
		if werr != nil {
			return last, records, torn, fmt.Errorf("journal: segment %s: %w", base, werr)
		}
		if t > 0 {
			if !allowTornTail || i != len(segs)-1 {
				return last, records, torn, fmt.Errorf(
					"%w: sealed segment %s has %d unreadable trailing bytes", ErrCorrupt, base, t)
			}
			torn += t
		}
	}
	return last, records, torn, nil
}

// TakeRecovered hands over the state Open rebuilt, once; later calls
// return nil. The caller bulk-loads it into a fresh engine and the store
// drops its reference so the memory can be reclaimed.
func (s *Store) TakeRecovered() *State {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.recovered
	s.recovered = nil
	return st
}

// Summary reports what Open recovered.
func (s *Store) Summary() Summary { return s.summary }

// Append sequences rec and buffers its frame. It performs no I/O and, for a
// record in canonical form, no allocation, so it is safe to call from a
// spine tap running under the task store's lock; durability follows
// within one fsync interval (or sooner, once fsyncBytes accumulate).
func (s *Store) Append(rec Record) error {
	s.mu.Lock()
	if s.err != nil {
		err := s.err
		s.mu.Unlock()
		return err
	}
	if s.closed {
		s.mu.Unlock()
		return errClosed
	}
	rec.Seq = s.seq + 1
	buf, err := appendFrame(s.buf, rec)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	grew := len(buf) - len(s.buf)
	s.seq++
	s.buf = buf
	s.pendingRecs++
	pending := len(s.buf)
	s.mu.Unlock()

	s.records.Add(1)
	s.bytes.Add(int64(grew))
	if pending >= fsyncBytes {
		select {
		case s.kick <- struct{}{}:
		default:
		}
	}
	return nil
}

// flusher is the group-commit loop: every tick (or early kick) it writes
// the buffered frames and fsyncs once, amortizing the fsync across every
// append since the last commit.
func (s *Store) flusher() {
	defer s.wg.Done()
	//lint:ignore clockdiscipline the ticker only paces group commits; fsync latency itself reads the injected clock
	ticker := time.NewTicker(s.opts.FsyncInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-ticker.C:
		case <-s.kick:
		}
		if s.flush() != nil {
			return // sticky error recorded; appends now fail loudly
		}
	}
}

// Sync forces a group commit, blocking until every record appended before
// the call is durable (or the store has failed).
func (s *Store) Sync() error { return s.flush() }

func (s *Store) flush() error {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	return s.flushLocked()
}

// flushLocked writes and fsyncs the buffered frames. Callers hold flushMu.
func (s *Store) flushLocked() error {
	s.mu.Lock()
	if s.err != nil {
		err := s.err
		s.mu.Unlock()
		return err
	}
	if len(s.buf) == 0 {
		s.mu.Unlock()
		return nil
	}
	// Swap buffers rather than dropping this one: Append fills the spare
	// while this commit writes buf out, then buf becomes the spare.
	buf := s.buf
	s.buf, s.spare = s.spare, nil
	s.pendingRecs = 0
	f := s.f
	boundary := s.seq
	closing := s.closed // Close's final commit seals nothing
	s.mu.Unlock()
	start := s.clk.Now()
	_, err := f.Write(buf)
	if cap(buf) <= maxSpareBytes {
		s.spare = buf[:0]
	}
	if err != nil {
		return s.fail(fmt.Errorf("journal: write segment: %w", err))
	}
	if err := f.Sync(); err != nil {
		return s.fail(fmt.Errorf("journal: fsync segment: %w", err))
	}
	elapsed := s.clk.Now().Sub(start)
	s.fsyncs.Add(1)
	s.fsyncNanos.Add(int64(elapsed))
	if obs, _ := s.fsyncObs.Load().(func(float64)); obs != nil {
		obs(elapsed.Seconds())
	}
	s.lastFlushed = boundary
	if s.segBytes.Add(int64(len(buf))) >= max(s.opts.CompactBytes, s.snapBytes.Load()) && !closing {
		return s.startCompaction()
	}
	return nil
}

// startCompaction seals the active segment and hands the rebuild to a
// goroutine of its own. While a rebuild is still in flight it does nothing:
// the segment stays over the trigger, and the next commit tries again.
// Callers hold flushMu.
func (s *Store) startCompaction() error {
	select {
	case s.compacting <- struct{}{}:
	default:
		return nil
	}
	if err := s.sealLocked(); err != nil {
		// Hand back the token just taken; a select, so that holding flushMu
		// here is visibly non-blocking.
		select {
		case <-s.compacting:
		default:
		}
		return s.fail(err)
	}
	s.wg.Add(1)
	go s.compactor()
	return nil
}

// compactor runs the rebuild a commit sealed for, then hands the token
// back. A failure is sticky, as any journal I/O failure is.
func (s *Store) compactor() {
	defer s.wg.Done()
	if err := s.rebuild(); err != nil {
		s.fail(err)
	}
	<-s.compacting
}

// Compact forces a segment seal and snapshot rebuild, as the size trigger
// would, and returns once the new snapshot is published — after the rebuild
// already in flight, if there is one. Mostly for tests and operational
// tooling.
func (s *Store) Compact() error {
	s.compacting <- struct{}{}
	defer func() { <-s.compacting }()
	if err := s.flush(); err != nil {
		return err
	}
	if err := s.compactLocked(); err != nil {
		return s.fail(err)
	}
	return nil
}

// compactLocked seals the active segment and rebuilds the snapshot through
// it. Callers hold the compacting token.
func (s *Store) compactLocked() error {
	s.flushMu.Lock()
	err := s.sealLocked()
	s.flushMu.Unlock()
	if err != nil {
		return err
	}
	return s.rebuild()
}

// sealLocked swaps in a fresh segment so appends continue, and queues the
// old one for the rebuild: everything in it through lastFlushed was just
// fsynced, so the file is immutable from here on. It seals nothing while
// the active segment holds no durable record. Callers hold flushMu and the
// compacting token.
func (s *Store) sealLocked() error {
	boundary := s.lastFlushed
	if boundary == s.sealedSeq {
		return nil
	}
	newPath := filepath.Join(s.dir, segmentName(boundary+1))
	nf, err := os.OpenFile(newPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: create segment: %w", err)
	}
	// The next commits land in the new file before the rebuild's own
	// directory sync: make its entry durable first.
	if err := syncDir(s.dir); err != nil {
		nf.Close()
		return err
	}
	s.mu.Lock()
	old, oldPath := s.f, s.activePath
	s.f, s.activePath = nf, newPath
	s.mu.Unlock()
	if err := old.Close(); err != nil {
		return fmt.Errorf("journal: close sealed segment: %w", err)
	}
	s.sealed = append(s.sealed, oldPath)
	s.sealedSeq = boundary
	s.segBytes.Store(0)
	return nil
}

// rebuildHook, set only by tests, runs as each rebuild starts.
var rebuildHook func()

// rebuild folds the sealed segments into a new snapshot at the sealed
// boundary by replaying them into the previous snapshot's state — offline
// state only, never the live engine, so the new snapshot is exact at the
// boundary — then publishes it and deletes its inputs. That state is the
// replica the last rebuild kept; without one it is read back from the
// snapshot file. Callers hold the compacting token and no mutex: the
// rebuild touches only files no commit writes and the fields the token
// owns.
func (s *Store) rebuild() error {
	boundary := s.sealedSeq
	if boundary == s.snapSeq {
		return nil // nothing sealed since the snapshot
	}
	if rebuildHook != nil {
		rebuildHook()
	}
	start := s.clk.Now()
	// The replica is taken out of the store for the duration: an error
	// below leaves none behind, so a half-applied one is never reused.
	st, snapSeq := s.replica, s.snapSeq
	s.replica = nil
	var err error
	if st == nil {
		if st, snapSeq, err = readSnapshot(s.snapPath); err != nil {
			return err
		}
	}
	last, _, _, err := replaySegments(st, snapSeq, s.sealed, false)
	if err != nil {
		return err
	}
	if last != boundary {
		return fmt.Errorf("%w: compaction replayed through %d, expected boundary %d", ErrCorrupt, last, boundary)
	}
	newSnap, size, err := writeSnapshot(s.dir, st, boundary)
	if err != nil {
		return err
	}
	oldSnap := s.snapPath
	s.snapPath, s.snapSeq = newSnap, boundary
	s.snapBytes.Store(size)
	for _, p := range append(s.sealed, oldSnap) {
		if err := os.Remove(p); err != nil {
			return fmt.Errorf("journal: remove compacted %s: %w", filepath.Base(p), err)
		}
	}
	s.sealed = nil
	if err := syncDir(s.dir); err != nil {
		return err
	}
	s.replica = st
	s.compactions.Add(1)
	if obs, _ := s.compactObs.Load().(func(float64)); obs != nil {
		obs(s.clk.Now().Sub(start).Seconds())
	}
	return nil
}

// fail records the first I/O failure; journaling stops, every later
// Append returns the same error, and the failure is loud in the log and
// on the metrics plane. The server itself keeps scheduling: a dead disk
// degrades durability, not availability.
func (s *Store) fail(err error) error {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	err = s.err
	s.mu.Unlock()
	s.failed.Store(true)
	s.opts.Logf("journal: FAILED, journaling stopped: %v", err)
	return err
}

// Err reports the sticky failure, if any.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// SetFsyncObserver installs a callback receiving each group commit's
// fsync latency in seconds (e.g. a metrics histogram).
func (s *Store) SetFsyncObserver(fn func(seconds float64)) {
	if fn != nil {
		s.fsyncObs.Store(fn)
	}
}

// SetCompactionObserver installs a callback receiving each snapshot
// rebuild's duration in seconds, from the start of its replay to the
// deletion of its inputs.
func (s *Store) SetCompactionObserver(fn func(seconds float64)) {
	if fn != nil {
		s.compactObs.Store(fn)
	}
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	pending := len(s.buf)
	last := s.seq
	s.mu.Unlock()
	return Stats{
		Records:       s.records.Load(),
		Bytes:         s.bytes.Load(),
		Fsyncs:        s.fsyncs.Load(),
		FsyncNanos:    s.fsyncNanos.Load(),
		Compactions:   s.compactions.Load(),
		PendingBytes:  pending,
		SegmentBytes:  s.segBytes.Load(),
		SnapshotBytes: s.snapBytes.Load(),
		LastSeq:       last,
		Failed:        s.failed.Load(),
	}
}

// Close stops the flusher, waits for a rebuild in flight, performs a final
// group commit so every acknowledged append is durable, and closes the
// active segment. The flush-before-shutdown ordering is the caller's
// contract: stop producing appends (engine loops, connections), and calling
// Sync or Compact, before calling Close.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return s.err
	}
	s.closed = true
	s.mu.Unlock()
	close(s.done)
	s.wg.Wait() // the flusher, then the compactor it may have started
	ferr := s.flush()
	s.mu.Lock()
	f := s.f
	s.f = nil
	s.mu.Unlock()
	var cerr error
	if f != nil {
		cerr = f.Close()
	}
	if ferr != nil {
		return ferr
	}
	if cerr != nil {
		return fmt.Errorf("journal: close segment: %w", cerr)
	}
	return nil
}
