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
//
// From task 100 on it adds what a snapshot merge must get right: ids
// encoding/json escapes or the codec declines (streamID), grades landing
// long after the completion, a task graded and then forgotten (and one
// graded after it was forgotten), a forgotten id resubmitted at once, and a
// worker attaching and deregistering. The
// first 100 tasks are the stream the crash tests have always replayed.
func mixedStream(first, n int) []Record {
	var recs []Record
	if first == 0 {
		for w := 0; w < 4; w++ {
			recs = append(recs, Record{Kind: event.KindAttach, Worker: fmt.Sprintf("w%d", w), Lat: 40 + float64(w)/7, Lon: -74})
		}
	}
	// at is task j's record in the given status.
	at := func(j int, status taskq.Status, holder string) *taskq.Record {
		r := taskRec(streamID(j), status, holder)
		r.Task.Submitted = testEpoch.Add(time.Duration(j) * 1370 * time.Millisecond)
		if status != taskq.Unassigned {
			r.AssignedAt = r.Task.Submitted.Add(time.Second)
		}
		if status >= taskq.Completed {
			r.FinishedAt = r.Task.Submitted.Add(time.Second + time.Duration(1+j*7919%9973)*time.Millisecond)
		}
		return r
	}
	grade := func(j int) Record {
		return Record{Kind: event.KindFeedback, TaskID: streamID(j), Worker: fmt.Sprintf("w%d", j%4), Category: "ocr", Positive: j%2 == 0}
	}
	for i := first; i < first+n; i++ {
		id, worker := streamID(i), fmt.Sprintf("w%d", i%4)
		recs = append(recs, Record{Kind: event.KindSubmit, Task: at(i, taskq.Unassigned, "")})
		switch i % 5 {
		case 0: // shed before anyone held it
			recs = append(recs, Record{Kind: event.KindExpire, Cause: taskq.CauseShed, Task: at(i, taskq.Expired, "")})
			continue
		case 1: // revoked once, then completed by the next worker
			recs = append(recs,
				Record{Kind: event.KindAssign, Task: at(i, taskq.Assigned, "w3")},
				Record{Kind: event.KindRevoke, Cause: taskq.CauseEq2, Task: at(i, taskq.Unassigned, "")})
		}
		recs = append(recs,
			Record{Kind: event.KindAssign, Task: at(i, taskq.Assigned, worker)},
			Record{Kind: event.KindComplete, Task: at(i, taskq.Completed, worker)})
		if i%3 == 0 {
			recs = append(recs, Record{Kind: event.KindFeedback, TaskID: id, Worker: worker, Category: "ocr", Positive: i%2 == 0})
		}
		if i >= 100 && i%9 == 4 && (i-6)%5 != 0 {
			recs = append(recs, grade(i-6)) // a completion a few tasks back
		}
		if i >= 30 {
			if i >= 100 && i%7 == 0 && (i-30)%5 != 0 {
				recs = append(recs, grade(i-30)) // graded, then forgotten below
			}
			recs = append(recs, Record{Kind: event.KindForget, TaskID: streamID(i - 30)})
			if i >= 100 && i%11 == 6 && (i-30)%5 != 0 {
				recs = append(recs, grade(i-30)) // a grade the forgotten task no longer takes
			}
			if i >= 100 && i%10 == 3 {
				recs = append(recs, Record{Kind: event.KindSubmit, Task: at(i-30, taskq.Unassigned, "")})
			}
		}
		if i == 57 {
			recs = append(recs, Record{Kind: event.KindDeregister, Worker: "w3"})
		}
		if i >= 100 && i%50 == 10 {
			recs = append(recs, Record{Kind: event.KindAttach, Worker: "w4", Lat: 41, Lon: -73})
		}
		if i >= 100 && i%50 == 35 {
			recs = append(recs, Record{Kind: event.KindDeregister, Worker: "w4"})
		}
	}
	return recs
}

// streamID is mixedStream's id for task i: from task 100 on, some ids hold
// a byte encoding/json escapes or a rune the codec declines, so their
// records and snapshot lines take the encoding/json fallback.
func streamID(i int) string {
	switch {
	case i >= 100 && i%13 == 5:
		return fmt.Sprintf("t%05d<", i)
	case i >= 100 && i%13 == 11:
		return fmt.Sprintf("té%05d", i)
	}
	return fmt.Sprintf("t%05d", i)
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

// encodeFull is the snapshot a full rebuild writes of st at seq: every task
// it holds, with no base to merge onto.
func encodeFull(t testing.TB, st *State, seq uint64) []byte {
	t.Helper()
	var out bytes.Buffer
	if _, err := encodeSnapshot(&out, st, seq, nil, len(st.Tasks)); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
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
// its compactions re-reads the profiles and counters from the snapshot
// file. After every compaction the two snapshot files must be the same
// bytes under the same name, and the warm replica must hold no tasks.
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
	warm.locked(func() { requireTaskless(t, warm) })
}

// requireTaskless fails unless s kept a replica through its last
// compaction, and that replica holds none of the snapshot's tasks: they
// live only in the file. Callers hold the compacting token.
func requireTaskless(t *testing.T, s *Store) {
	t.Helper()
	if s.replica == nil {
		t.Fatal("the successful compaction kept no replica")
	}
	if n, m := len(s.replica.Tasks), len(s.replica.marks); n != 0 || m != 0 {
		t.Fatalf("the published replica holds %d tasks and %d marks, want none", n, m)
	}
}

// TestCompactionFailureDropsReplica injects a failure into a warm
// compaction — while replaying the sealed segment, or while writing the
// snapshot out, when the replica has already moved past the snapshot it
// stood for — and requires the replica gone, the next compaction to succeed
// from the snapshot file, its output to be what a store that never failed
// writes, and the replica it keeps to hold no tasks.
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
				requireTaskless(t, s)
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
			s.locked(func() { requireTaskless(t, s) })
		})
	}
}

// fullRebuild is the snapshot a compaction of s would write without a
// replica or a merge: the current snapshot read whole, the sealed segments
// replayed into it, and the result encoded with no base. Callers hold the
// compacting token.
func fullRebuild(s *Store) ([]byte, error) {
	st, seq, err := readSnapshot(s.snapPath)
	if err != nil {
		return nil, err
	}
	last, _, _, err := replaySegments(st, seq, s.sealed, false)
	if err != nil {
		return nil, err
	}
	if last != s.sealedSeq {
		return nil, fmt.Errorf("full rebuild replayed through %d, sealed boundary %d", last, s.sealedSeq)
	}
	var out bytes.Buffer
	if _, err := encodeSnapshot(&out, st, last, nil, len(st.Tasks)); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// mergeOracle installs a rebuildHook that computes, as each rebuild of s
// starts, what a full rebuild would write at its boundary. check compares
// the snapshot the rebuild published with it; it runs under the compacting
// token, after the rebuild, and reports whether there was one to compare.
func mergeOracle(t testing.TB, s **Store) (check func() bool) {
	var (
		want []byte
		err  error
	)
	rebuildHook = func() { want, err = fullRebuild(*s) }
	t.Cleanup(func() { rebuildHook = nil })
	return func() bool {
		if err != nil {
			t.Fatalf("full rebuild: %v", err)
		}
		if want == nil {
			return false
		}
		got, rerr := os.ReadFile((*s).snapPath)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("merged snapshot %s differs from the full rebuild:\n%s\nwant\n%s",
				filepath.Base((*s).snapPath), got, want)
		}
		want = nil
		return true
	}
}

// TestMergedSnapshotMatchesFullRebuild drives mixedStream through stores
// that compact on three size triggers, a commit per record, and requires
// every snapshot a compaction publishes to be byte for byte what a full
// rebuild writes at the same boundary.
func TestMergedSnapshotMatchesFullRebuild(t *testing.T) {
	for _, compactBytes := range []int64{2 << 10, 8 << 10, 32 << 10} {
		t.Run(fmt.Sprintf("%dKiB", compactBytes>>10), func(t *testing.T) {
			var s *Store
			check := mergeOracle(t, &s)
			s, err := Open(Options{Dir: t.TempDir(), CompactBytes: compactBytes, FsyncInterval: time.Hour, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			s.TakeRecovered()
			checked := 0
			for _, rec := range mixedStream(0, 600) {
				appendAll(t, s, []Record{rec})
				if err := s.Sync(); err != nil {
					t.Fatal(err)
				}
				s.locked(func() {
					if check() {
						checked++
					}
				})
			}
			if n := s.Stats().Compactions; checked != int(n) || n < 5 {
				t.Fatalf("checked %d of %d compactions", checked, n)
			}
		})
	}
}

// TestMergeRefusesDisorderedBase damages the snapshot a compaction merges
// onto — two task lines swapped, or one repeated — and requires the rebuild
// to fail with ErrCorrupt, whether the replica is warm or re-read from the
// damaged file, with no snapshot published and no replica kept.
func TestMergeRefusesDisorderedBase(t *testing.T) {
	damages := map[string]func(lines [][]byte){
		"swapped":  func(lines [][]byte) { lines[1], lines[2] = lines[2], lines[1] },
		"repeated": func(lines [][]byte) { lines[2] = lines[1] },
	}
	for name, damage := range damages {
		for _, cold := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/cold=%v", name, cold), func(t *testing.T) {
				dir := t.TempDir()
				s := openTest(t, dir)
				defer s.Close()
				s.TakeRecovered()
				appendAll(t, s, mixedStream(0, 40))
				if err := s.Compact(); err != nil {
					t.Fatal(err)
				}
				appendAll(t, s, mixedStream(40, 10))
				if err := s.Sync(); err != nil {
					t.Fatal(err)
				}
				s.locked(func() {
					base := s.snapPath
					raw, err := os.ReadFile(base)
					if err != nil {
						t.Fatal(err)
					}
					lines := bytes.SplitAfter(raw, []byte("\n"))
					damage(lines)
					if err := os.WriteFile(base, bytes.Join(lines, nil), 0o644); err != nil {
						t.Fatal(err)
					}
					if cold {
						s.replica = nil
					}
					if err := s.compactLocked(); !errors.Is(err, ErrCorrupt) {
						t.Fatalf("compaction onto a %s base: %v, want ErrCorrupt", name, err)
					}
					if s.snapPath != base || s.replica != nil {
						t.Fatalf("the failed compaction moved the snapshot to %s or kept a replica", s.snapPath)
					}
					snaps, err := filepath.Glob(filepath.Join(dir, "snapshot-*.snap"))
					if err != nil || len(snaps) != 1 || snaps[0] != base {
						t.Fatalf("snapshots on disk: %v (err %v), want only %s", snaps, err, base)
					}
				})
			})
		}
	}
}

// TestMergeHeaderWidthChanges covers the header's task count: it is
// written as an estimate before the merge and patched once the merge has
// counted, and when the count has another number of digits the snapshot is
// written a second time. Upserting every base task makes the estimate too
// high (9 tasks counted twice), grading base tasks too low (12 less 5); both
// must write what a full rebuild writes.
func TestMergeHeaderWidthChanges(t *testing.T) {
	cases := map[string]struct {
		tasks int
		then  func(id string, i int) *Record
	}{
		"upserted": {9, func(id string, _ int) *Record {
			return &Record{Kind: event.KindAssign, Task: taskRec(id, taskq.Assigned, "w1")}
		}},
		"graded": {12, func(id string, i int) *Record {
			if i >= 5 {
				return nil
			}
			return &Record{Kind: event.KindFeedback, TaskID: id, Worker: "w1", Category: "ocr", Positive: true}
		}},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			var s *Store
			check := mergeOracle(t, &s)
			s = openTest(t, t.TempDir())
			defer s.Close()
			s.TakeRecovered()
			appendAll(t, s, []Record{{Kind: event.KindAttach, Worker: "w1", Lat: 40, Lon: -74}})
			for i := 0; i < tc.tasks; i++ {
				appendAll(t, s, []Record{{Kind: event.KindComplete, Task: taskRec(fmt.Sprintf("t%02d", i), taskq.Completed, "w1")}})
			}
			for round := 0; round < 2; round++ {
				if round == 1 {
					for i := 0; i < tc.tasks; i++ {
						if rec := tc.then(fmt.Sprintf("t%02d", i), i); rec != nil {
							appendAll(t, s, []Record{*rec})
						}
					}
				}
				if err := s.Compact(); err != nil {
					t.Fatal(err)
				}
				s.locked(func() {
					if !check() {
						t.Fatal("no compaction to check")
					}
				})
			}
		})
	}
}

// TestSnapshotLongTaskLine gives a task a description longer than the
// buffer snapshots stream through: the merge must copy its line whole, and
// recovery must read it back.
func TestSnapshotLongTaskLine(t *testing.T) {
	dir := t.TempDir()
	var s *Store
	check := mergeOracle(t, &s)
	s = openTest(t, dir)
	long := taskRec("long", taskq.Unassigned, "")
	long.Task.Description = strings.Repeat("a photo of a street corner; ", 3*snapshotBufBytes/28)
	appendAll(t, s, []Record{{Kind: event.KindSubmit, Task: long}})
	for _, id := range []string{"a", "z"} {
		appendAll(t, s, []Record{{Kind: event.KindSubmit, Task: taskRec(id, taskq.Unassigned, "")}})
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		s.locked(func() { check() })
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openTest(t, dir)
	defer r.Close()
	if got := r.TakeRecovered().Tasks["long"]; got.Task.Description != long.Task.Description {
		t.Fatalf("recovered a %d-byte description, want %d bytes", len(got.Task.Description), len(long.Task.Description))
	}
}

// FuzzSnapshotMerge drives a store through a random lifecycle stream, two
// input bytes a step — submits (some with ids encoding/json escapes),
// assignments, revocations, completions, expiries, forgets, grades,
// resubmits of a known id, worker attaches and deregistrations — sealed at
// random points, and requires every snapshot a compaction publishes to be
// what a full rebuild writes at the same boundary.
func FuzzSnapshotMerge(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 3, 0, 9, 0, 6, 0, 5, 1, 9, 0})
	f.Add([]byte{0, 2, 0, 3, 4, 0, 9, 0, 6, 1, 5, 1, 7, 1, 6, 1, 9, 0, 8, 4, 9, 0})
	f.Add([]byte{0, 5, 1, 0, 4, 0, 0, 6, 9, 0, 5, 0, 7, 0, 6, 0, 5, 0, 9, 0})
	f.Fuzz(func(t *testing.T, steps []byte) {
		if len(steps) > 400 {
			steps = steps[:400]
		}
		var s *Store
		check := mergeOracle(t, &s)
		s, err := Open(Options{Dir: t.TempDir(), CompactBytes: 1 << 40, FsyncInterval: time.Hour, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		s.TakeRecovered()
		compact := func() {
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			s.locked(func() { check() })
		}
		workers := map[string]bool{}
		var ids []string
		for i := 0; i+1 < len(steps); i += 2 {
			op, arg := steps[i]%10, int(steps[i+1])
			worker := fmt.Sprintf("w%d", arg%3)
			var rec Record
			switch {
			case op == 0:
				id := [...]string{"t%03d", "t%03d<", "té%03d", "t%03d&"}[arg%4]
				ids = append(ids, fmt.Sprintf(id, len(ids)))
				rec = Record{Kind: event.KindSubmit, Task: taskRec(ids[len(ids)-1], taskq.Unassigned, "")}
			case op == 8:
				if workers[worker] && arg%2 == 1 {
					rec = Record{Kind: event.KindDeregister, Worker: worker}
				} else {
					rec = Record{Kind: event.KindAttach, Worker: worker, Lat: 40, Lon: float64(arg % 90)}
				}
				workers[worker] = rec.Kind == event.KindAttach
			case op == 9:
				compact()
				continue
			case len(ids) == 0:
				continue
			default:
				id := ids[arg%len(ids)]
				task := func(status taskq.Status, holder string) *taskq.Record {
					r := taskRec(id, status, holder)
					if status >= taskq.Completed {
						r.FinishedAt = r.AssignedAt.Add(time.Duration(arg+1) * time.Second)
					}
					return r
				}
				rec = [...]Record{
					1: {Kind: event.KindAssign, Task: task(taskq.Assigned, worker)},
					2: {Kind: event.KindComplete, Task: task(taskq.Completed, worker)},
					3: {Kind: event.KindRevoke, Cause: taskq.CauseEq2, Task: task(taskq.Unassigned, "")},
					4: {Kind: event.KindExpire, Cause: taskq.CauseShed, Task: task(taskq.Expired, "")},
					5: {Kind: event.KindForget, TaskID: id},
					6: {Kind: event.KindFeedback, TaskID: id, Worker: worker, Category: "ocr", Positive: arg%2 == 0},
					7: {Kind: event.KindSubmit, Task: task(taskq.Unassigned, "")},
				}[op]
			}
			if err := s.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		compact()
	})
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
// server runs every few seconds: the segment's replay into the replica, and
// the merge that copies the lines of the tasks it left alone and encodes
// the ≈ 3 000 it changed. Run with -benchmem: B/op is the point, and it
// counts only the pass itself, since the replica holds no tasks.
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
// size. allocs/op is the point — the sink runs under the task store's lock.
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
