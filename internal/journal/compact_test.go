package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"react/internal/event"
	"react/internal/taskq"
)

// mixedStream is a deterministic record stream that touches everything a
// snapshot persists: several workers (one later deregistered), execution
// times that give each power-law fitter an irrational SumLog, graded and
// ungraded completions, revocations, sheds, and retention forgetting
// older tasks. Task ids start at first so successive calls extend a log.
func mixedStream(first, n int) []Record {
	var recs []Record
	if first == 0 {
		for w := 0; w < 4; w++ {
			recs = append(recs, Record{Kind: event.KindAttach, Worker: fmt.Sprintf("w%d", w), Lat: 40 + float64(w)/7, Lon: -74})
		}
	}
	for i := first; i < first+n; i++ {
		id, worker := fmt.Sprintf("t%05d", i), fmt.Sprintf("w%d", i%4)
		at := func(status taskq.Status, holder string) *taskq.Record {
			r := taskRec(id, status, holder)
			r.Task.Submitted = testEpoch.Add(time.Duration(i) * 1370 * time.Millisecond)
			if status != taskq.Unassigned {
				r.AssignedAt = r.Task.Submitted.Add(time.Second)
			}
			if status >= taskq.Completed {
				r.FinishedAt = r.Task.Submitted.Add(time.Second + time.Duration(1+i*7919%9973)*time.Millisecond)
			}
			return r
		}
		recs = append(recs, Record{Kind: event.KindSubmit, Task: at(taskq.Unassigned, "")})
		switch i % 5 {
		case 0: // shed before anyone held it
			recs = append(recs, Record{Kind: event.KindExpire, Cause: taskq.CauseShed, Task: at(taskq.Expired, "")})
			continue
		case 1: // revoked once, then completed by the next worker
			recs = append(recs,
				Record{Kind: event.KindAssign, Task: at(taskq.Assigned, "w3")},
				Record{Kind: event.KindRevoke, Cause: taskq.CauseEq2, Task: at(taskq.Unassigned, "")})
		}
		recs = append(recs,
			Record{Kind: event.KindAssign, Task: at(taskq.Assigned, worker)},
			Record{Kind: event.KindComplete, Task: at(taskq.Completed, worker)})
		if i%3 == 0 {
			recs = append(recs, Record{Kind: event.KindFeedback, TaskID: id, Worker: worker, Category: "ocr", Positive: i%2 == 0})
		}
		if i >= 30 {
			recs = append(recs, Record{Kind: event.KindForget, TaskID: fmt.Sprintf("t%05d", i-30)})
		}
		if i == 57 {
			recs = append(recs, Record{Kind: event.KindDeregister, Worker: "w3"})
		}
	}
	return recs
}

// locked runs fn holding the compacting token, as a rebuild does: after
// any rebuild in flight has finished, and with none starting until fn returns.
func (s *Store) locked(fn func()) {
	s.compacting <- struct{}{}
	defer func() { <-s.compacting }()
	fn()
}

// snapshotBytes reads the store's current snapshot file.
func snapshotBytes(t *testing.T, s *Store) (name string, raw []byte) {
	t.Helper()
	s.locked(func() {
		var err error
		if raw, err = os.ReadFile(s.snapPath); err != nil {
			t.Fatal(err)
		}
		name = filepath.Base(s.snapPath)
	})
	return name, raw
}

func appendAll(t *testing.T, s *Store, recs []Record) {
	t.Helper()
	for _, r := range recs {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWarmCompactionMatchesCold feeds one record stream to two stores that
// compact on the same size trigger. One keeps its replica between
// compactions; the other has it taken away after every commit, so each of
// its compactions re-reads the snapshot file. After every compaction the
// two snapshot files must be the same bytes under the same name.
func TestWarmCompactionMatchesCold(t *testing.T) {
	open := func() *Store {
		s, err := Open(Options{Dir: t.TempDir(), CompactBytes: 8 << 10, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		s.TakeRecovered()
		t.Cleanup(func() { s.Close() })
		return s
	}
	warm, cold := open(), open()
	var compactions, warmRuns int64
	for _, rec := range mixedStream(0, 400) {
		// A commit per record: both stores cross the trigger on the same
		// record whichever goroutine performs the commit.
		for _, s := range []*Store{warm, cold} {
			if err := s.Append(rec); err != nil {
				t.Fatal(err)
			}
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		// Each store's rebuild runs beside its commits: wait it out, so the
		// next crossing seals on the same record in both.
		warm.locked(func() {})
		cold.locked(func() { cold.replica = nil })
		n := warm.Stats().Compactions
		if c := cold.Stats().Compactions; c != n {
			t.Fatalf("stores diverged: %d warm compactions, %d cold", n, c)
		}
		if n == compactions {
			continue
		}
		if n > 1 {
			warmRuns++ // the first compaction after Open is cold for both
		}
		compactions = n
		wname, wraw := snapshotBytes(t, warm)
		cname, craw := snapshotBytes(t, cold)
		if wname != cname || !bytes.Equal(wraw, craw) {
			t.Fatalf("compaction %d: warm %s (%d bytes) differs from cold %s (%d bytes)",
				n, wname, len(wraw), cname, len(craw))
		}
	}
	if warmRuns < 5 {
		t.Fatalf("only %d warm compactions ran; the stream is too short for the threshold", warmRuns)
	}
	warm.locked(func() {
		if warm.replica == nil {
			t.Fatal("the warm store kept no replica")
		}
	})
}

// TestCompactionFailureDropsReplica injects a failure into a warm
// compaction — while replaying the sealed segment, or while writing the
// snapshot out, when the replica has already moved past the snapshot it
// stood for — and requires the replica gone, the next compaction to succeed
// from the snapshot file, and its output to be what a store that never
// failed writes.
func TestCompactionFailureDropsReplica(t *testing.T) {
	batches := [][]Record{mixedStream(0, 40), mixedStream(40, 40), mixedStream(80, 40)}

	control := openTest(t, t.TempDir())
	defer control.Close()
	control.TakeRecovered()
	appendAll(t, control, batches[0])
	if err := control.Compact(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, control, append(batches[1], batches[2]...))
	if err := control.Compact(); err != nil {
		t.Fatal(err)
	}
	wantName, want := snapshotBytes(t, control)

	cases := []struct {
		name string
		// inject breaks the store's next compaction; the returned func
		// undoes the damage.
		inject func(t *testing.T, s *Store) (repair func())
		wantIs error
	}{
		{name: "replay", wantIs: ErrCorrupt, inject: func(t *testing.T, s *Store) func() {
			// Unreadable bytes after the last frame of the segment about to
			// be sealed: tolerated on a crash tail, refused in a sealed file.
			path := s.activePath
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.Write([]byte("\x07torn\x07")); err != nil {
				t.Fatal(err)
			}
			return func() {
				if err := os.Truncate(path, info.Size()); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{name: "write", inject: func(t *testing.T, s *Store) func() {
			// The temp path is taken by a directory: the snapshot cannot be
			// created, after the replay has already been applied.
			tmp := filepath.Join(s.dir, snapshotTmp)
			if err := os.Mkdir(tmp, 0o755); err != nil {
				t.Fatal(err)
			}
			return func() {
				if err := os.Remove(tmp); err != nil {
					t.Fatal(err)
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := openTest(t, t.TempDir())
			defer s.Close()
			s.TakeRecovered()
			appendAll(t, s, batches[0])
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			appendAll(t, s, batches[1])
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}

			// compactLocked is driven directly: through Compact the first
			// error is sticky and the store stops journaling for good.
			var repair func()
			s.locked(func() {
				if s.replica == nil {
					t.Fatal("no replica after a successful compaction")
				}
				repair = tc.inject(t, s)
				err := s.compactLocked()
				if err == nil || (tc.wantIs != nil && !errors.Is(err, tc.wantIs)) {
					t.Fatalf("injected %s failure: compactLocked = %v", tc.name, err)
				}
				if s.replica != nil {
					t.Fatal("a failed compaction left its replica behind")
				}
			})
			repair()

			appendAll(t, s, batches[2])
			if err := s.Compact(); err != nil {
				t.Fatalf("compaction after the repaired failure: %v", err)
			}
			gotName, got := snapshotBytes(t, s)
			if gotName != wantName || !bytes.Equal(got, want) {
				t.Fatalf("snapshot %s (%d bytes) differs from the never-failed store's %s (%d bytes)",
					gotName, len(got), wantName, len(want))
			}
			s.locked(func() {
				if s.replica == nil {
					t.Fatal("the successful compaction kept no replica")
				}
			})
		})
	}
}

// TestCrashBetweenSealAndPublish reproduces the directory a crash leaves
// when it lands mid-compaction, after the segment was sealed and while the
// next snapshot was still streaming into snapshot.tmp: the old snapshot,
// the sealed segment, an empty new segment, and a partial temp file.
// Recovery must replay everything and clear the temp file away.
func TestCrashBetweenSealAndPublish(t *testing.T) {
	live := t.TempDir()
	s := openTest(t, live)
	defer s.Close()
	s.TakeRecovered()
	first, second := mixedStream(0, 40), mixedStream(40, 40)
	appendAll(t, s, first)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, second)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	last := s.Stats().LastSeq
	_, snap := snapshotBytes(t, s)

	crashed := copyDir(t, live)
	if err := os.WriteFile(filepath.Join(crashed, segmentName(last+1)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	// A streamed snapshot cut mid-line, as a buffer's worth at a time leaves it.
	if err := os.WriteFile(filepath.Join(crashed, snapshotTmp), snap[:len(snap)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}

	r := openTest(t, crashed)
	defer r.Close()
	sum := r.Summary()
	if sum.LastSeq != last || sum.TornBytes != 0 {
		t.Fatalf("recovered through %d with %d torn bytes, want %d and 0", sum.LastSeq, sum.TornBytes, last)
	}
	want := NewState()
	for i, rec := range append(first, second...) {
		rec.Seq = uint64(i + 1)
		if err := want.Apply(rec); err != nil {
			t.Fatal(err)
		}
	}
	got := r.TakeRecovered()
	if len(got.Tasks) != len(want.Tasks) || got.Stats.Counts() != want.Stats.Counts() {
		t.Fatalf("recovered %d tasks %+v, want %d tasks %+v",
			len(got.Tasks), got.Stats.Counts(), len(want.Tasks), want.Stats.Counts())
	}
	if _, err := os.Stat(filepath.Join(crashed, snapshotTmp)); !os.IsNotExist(err) {
		t.Fatalf("recovery left %s behind: %v", snapshotTmp, err)
	}
}

// copyDir copies the store directory dir, as a crash would leave it, into a
// new temporary directory.
func copyDir(t *testing.T, dir string) string {
	t.Helper()
	crashed := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crashed, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return crashed
}

// TestCommitsContinueDuringCompaction holds a size-triggered rebuild at its
// start and requires group commits to go on beside it: Sync returns, and
// the records appended meanwhile survive a crash taken while the rebuild is
// still held — a copy of the directory, reopened.
func TestCommitsContinueDuringCompaction(t *testing.T) {
	held, release := make(chan struct{}, 1), make(chan struct{})
	rebuildHook = func() {
		select {
		case held <- struct{}{}:
		default:
		}
		<-release
	}
	defer func() { rebuildHook = nil }()
	var once sync.Once
	free := func() { once.Do(func() { close(release) }) }

	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, CompactBytes: 4 << 10, FsyncInterval: time.Hour, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer free() // before Close, which waits for the rebuild
	s.TakeRecovered()
	// commit syncs, failing the test if the commit waits for the rebuild.
	commit := func() {
		t.Helper()
		synced := make(chan error, 1)
		go func() { synced <- s.Sync() }()
		select {
		case err := <-synced:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Sync blocked behind the compaction")
		}
	}
	first, second := mixedStream(0, 40), mixedStream(40, 40)
	appendAll(t, s, first)
	commit() // crosses CompactBytes: seals, starts the rebuild
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("the commit past CompactBytes started no rebuild")
	}
	appendAll(t, s, second)
	commit()
	crashed := copyDir(t, dir)
	free()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openTest(t, crashed)
	defer r.Close()
	all := append(first, second...)
	if sum := r.Summary(); sum.LastSeq != uint64(len(all)) || sum.TornBytes != 0 {
		t.Fatalf("recovered through %d with %d torn bytes, want %d and 0", sum.LastSeq, sum.TornBytes, len(all))
	}
	want := NewState()
	for i, rec := range all {
		rec.Seq = uint64(i + 1)
		if err := want.Apply(rec); err != nil {
			t.Fatal(err)
		}
	}
	got := r.TakeRecovered()
	if len(got.Tasks) != len(want.Tasks) || got.Stats.Counts() != want.Stats.Counts() {
		t.Fatalf("recovered %d tasks %+v, want %d tasks %+v",
			len(got.Tasks), got.Stats.Counts(), len(want.Tasks), want.Stats.Counts())
	}
}

// TestCompactionIsAmortized churns a stream whose retained set is far larger
// than CompactBytes, so every snapshot outweighs the trigger's floor. The
// snapshot bytes compactions write must stay within the WAL bytes appended
// plus one snapshot (and CompactBytes), and after every commit the WAL past
// the snapshot within the trigger plus one commit. The test waits out each
// commit's rebuild before appending again, so no appends land during one and
// the bound's term for them is zero.
func TestCompactionIsAmortized(t *testing.T) {
	const compactBytes, retained, tasks, perCommit = 8 << 10, 500, 4000, 50
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, CompactBytes: compactBytes, FsyncInterval: time.Hour, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.TakeRecovered()
	appendAll(t, s, []Record{{Kind: event.KindAttach, Worker: "w1", Lat: 40, Lon: -74}})

	// walPast sums the segment files on disk: the active one, and the one a
	// rebuild in flight has yet to delete.
	walPast := func() (n int64) {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if info, err := e.Info(); err == nil && strings.HasPrefix(e.Name(), "wal-") {
				n += info.Size()
			}
		}
		return n
	}
	var written, compactions int64
	for next := 0; next < tasks; {
		for end := next + perCommit; next < end; next++ {
			id := fmt.Sprintf("t%07d", next)
			appendAll(t, s, []Record{
				{Kind: event.KindSubmit, Task: taskRec(id, taskq.Unassigned, "")},
				{Kind: event.KindAssign, Task: taskRec(id, taskq.Assigned, "w1")},
				{Kind: event.KindComplete, Task: taskRec(id, taskq.Completed, "w1")},
			})
			if next >= retained {
				appendAll(t, s, []Record{{Kind: event.KindForget, TaskID: fmt.Sprintf("t%07d", next-retained)}})
			}
		}
		trigger := max(compactBytes, s.Stats().SnapshotBytes)
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		if past := walPast(); past > trigger+fsyncBytes {
			t.Fatalf("after %d tasks: %d WAL bytes past the snapshot, trigger %d + one commit %d",
				next, past, trigger, fsyncBytes)
		}
		s.locked(func() {}) // the rebuild this commit started, if any
		if st := s.Stats(); st.Compactions != compactions {
			if st.Compactions != compactions+1 {
				t.Fatalf("one commit ran %d compactions", st.Compactions-compactions)
			}
			written += st.SnapshotBytes
			compactions = st.Compactions
		}
	}
	st := s.Stats()
	if st.SnapshotBytes < 10*compactBytes || compactions < 5 {
		t.Fatalf("%d compactions of a %d-byte snapshot: the stream does not exercise the trigger",
			compactions, st.SnapshotBytes)
	}
	if limit := st.Bytes + st.SnapshotBytes + compactBytes; written > limit {
		t.Fatalf("compactions wrote %d snapshot bytes for %d WAL bytes appended (limit %d)",
			written, st.Bytes, limit)
	}
	t.Logf("%d compactions wrote %d snapshot bytes for %d WAL bytes", compactions, written, st.Bytes)
}

// BenchmarkCompact times one compaction of a full 4 MiB segment onto a
// snapshot of 20 000 retained tasks — the size-triggered pass a loaded
// server runs every few seconds. Run with -benchmem: B/op is the point.
func BenchmarkCompact(b *testing.B) {
	s, err := Open(Options{Dir: b.TempDir(), CompactBytes: 1 << 40, Logf: b.Logf})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	s.TakeRecovered()
	if err := s.Append(Record{Kind: event.KindAttach, Worker: "w1", Lat: 40, Lon: -74}); err != nil {
		b.Fatal(err)
	}
	next := 0
	// churn appends whole task lifecycles until `bytes` more are journaled,
	// forgetting the task 20 000 back so the retained set stays that size.
	churn := func(bytes int64) {
		for start := s.Stats().Bytes; s.Stats().Bytes-start < bytes; next++ {
			id := fmt.Sprintf("t%07d", next)
			for _, rec := range []Record{
				{Kind: event.KindSubmit, Task: taskRec(id, taskq.Unassigned, "")},
				{Kind: event.KindAssign, Task: taskRec(id, taskq.Assigned, "w1")},
				{Kind: event.KindComplete, Task: taskRec(id, taskq.Completed, "w1")},
			} {
				if err := s.Append(rec); err != nil {
					b.Fatal(err)
				}
			}
			if next >= 20000 {
				if err := s.Append(Record{Kind: event.KindForget, TaskID: fmt.Sprintf("t%07d", next-20000)}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	for next < 20000 {
		churn(1 << 20)
	}
	if err := s.Compact(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		churn(defaultCompactBytes)
		if err := s.Sync(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := s.Compact(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppend times the hot path alone: one task-lifecycle record
// sequenced, encoded and framed into an open store's buffer. Group commits
// happen with the timer stopped, before the buffer reaches the early-commit
// size. allocs/op is the point — the sink runs under a taskq shard lock.
func BenchmarkAppend(b *testing.B) {
	s, err := Open(Options{Dir: b.TempDir(), FsyncInterval: time.Hour, CompactBytes: 1 << 40, Logf: b.Logf})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	s.TakeRecovered()
	recs := []Record{
		{Kind: event.KindSubmit, Task: taskRec("t0000001", taskq.Unassigned, "")},
		{Kind: event.KindAssign, Task: taskRec("t0000001", taskq.Assigned, "w1")},
		{Kind: event.KindComplete, Task: taskRec("t0000001", taskq.Completed, "w1")},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%512 == 511 {
			b.StopTimer()
			if err := s.Sync(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if err := s.Append(recs[i%len(recs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplaySegment times the read half of a compaction (and of
// recovery): one sealed 4 MiB segment of whole task lifecycles replayed into
// a state that already holds 20 000 tasks.
func BenchmarkReplaySegment(b *testing.B) {
	st := NewState()
	var seq uint64
	var seg []byte
	lifecycleOf := func(i int) []Record {
		id := fmt.Sprintf("t%07d", i)
		return []Record{
			{Kind: event.KindSubmit, Task: taskRec(id, taskq.Unassigned, "")},
			{Kind: event.KindAssign, Task: taskRec(id, taskq.Assigned, "w1")},
			{Kind: event.KindComplete, Task: taskRec(id, taskq.Completed, "w1")},
			{Kind: event.KindForget, TaskID: fmt.Sprintf("t%07d", i-20000)},
		}
	}
	attach := Record{Kind: event.KindAttach, Worker: "w1", Lat: 40, Lon: -74}
	if err := st.Apply(attach); err != nil {
		b.Fatal(err)
	}
	i := 0
	for ; i < 20000; i++ {
		for _, rec := range lifecycleOf(i)[:3] {
			if err := st.Apply(rec); err != nil {
				b.Fatal(err)
			}
		}
	}
	for ; len(seg) < defaultCompactBytes; i++ {
		for _, rec := range lifecycleOf(i) {
			seq++
			rec.Seq = seq
			var err error
			if seg, err = appendFrame(seg, rec); err != nil {
				b.Fatal(err)
			}
		}
	}
	path := filepath.Join(b.TempDir(), segmentName(1))
	if err := os.WriteFile(path, seg, 0o644); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(seg)))
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		last, _, _, err := replaySegments(st, 0, []string{path}, false)
		if err != nil || last != seq {
			b.Fatalf("replayed through %d (err %v), want %d", last, err, seq)
		}
	}
}
