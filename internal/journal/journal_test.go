package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/iotest"
	"time"

	"react/internal/event"
	"react/internal/region"
	"react/internal/taskq"
)

var testEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// taskRec builds a full post-mutation record, as the task store would publish.
func taskRec(id string, status taskq.Status, worker string) *taskq.Record {
	r := &taskq.Record{
		Task: taskq.Task{
			ID:        id,
			Deadline:  testEpoch.Add(time.Minute),
			Reward:    1,
			Category:  "ocr",
			Submitted: testEpoch,
		},
		Status: status,
		Worker: worker,
	}
	if status != taskq.Unassigned {
		r.AssignedAt = testEpoch.Add(time.Second)
		r.Attempts = 1
	}
	if status == taskq.Completed || status == taskq.Expired {
		r.FinishedAt = testEpoch.Add(30 * time.Second)
	}
	return r
}

func mustFrames(recs ...Record) []byte {
	var buf []byte
	var err error
	for _, r := range recs {
		if buf, err = appendFrame(buf, r); err != nil {
			panic(err)
		}
	}
	return buf
}

func frames(t *testing.T, recs ...Record) []byte {
	t.Helper()
	return mustFrames(recs...)
}

// frameAt is decodeFrame into a record (and task state) of its own.
func frameAt(buf []byte, off int) (rec Record, next int, ok bool) {
	next, ok = decodeFrame(buf, off, &rec, new(taskq.Record))
	return rec, next, ok
}

// decodeFrames collects what walkFrames hands out for buf, each record with
// a task state of its own.
func decodeFrames(buf []byte) (recs []Record, tornBytes int, err error) {
	return decodeFramesFrom(bytes.NewReader(buf))
}

// decodeFramesFrom is decodeFrames over any reader.
func decodeFramesFrom(r io.Reader) (recs []Record, tornBytes int, err error) {
	tornBytes, err = walkFrames(r, func(r *Record) error {
		rec := *r
		if r.Task != nil {
			task := *r.Task
			rec.Task = &task
		}
		recs = append(recs, rec)
		return nil
	})
	return recs, tornBytes, err
}

func lifecycle(n int) []Record {
	var recs []Record
	seq := uint64(0)
	next := func() uint64 { seq++; return seq }
	recs = append(recs, Record{Seq: next(), Kind: event.KindAttach, Worker: "w1", Lat: 40, Lon: -74})
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("t%03d", i)
		recs = append(recs,
			Record{Seq: next(), Kind: event.KindSubmit, Task: taskRec(id, taskq.Unassigned, "")},
			Record{Seq: next(), Kind: event.KindAssign, Task: taskRec(id, taskq.Assigned, "w1")},
			Record{Seq: next(), Kind: event.KindComplete, Task: taskRec(id, taskq.Completed, "w1")},
			Record{Seq: next(), Kind: event.KindFeedback, TaskID: id, Worker: "w1", Category: "ocr", Positive: true},
		)
	}
	return recs
}

func TestFrameRoundtrip(t *testing.T) {
	want := lifecycle(3)
	buf := frames(t, want...)
	got, torn, err := decodeFrames(buf)
	if err != nil || torn != 0 {
		t.Fatalf("decodeFrames: torn=%d err=%v", torn, err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Seq != want[i].Seq || got[i].Kind != want[i].Kind {
			t.Fatalf("record %d: got seq=%d kind=%v, want seq=%d kind=%v",
				i, got[i].Seq, got[i].Kind, want[i].Seq, want[i].Kind)
		}
	}
}

// TestDecodeTruncatedAtEveryOffset is the torn-write corpus: a crash can
// cut the log at ANY byte. Every prefix must decode to exactly the
// complete frames it contains, reporting the remainder as a torn tail —
// never an error, never a phantom record.
func TestDecodeTruncatedAtEveryOffset(t *testing.T) {
	recs := lifecycle(2)
	buf := frames(t, recs...)
	// Frame boundaries, so we know how many records each prefix holds.
	var bounds []int
	off := 0
	for off < len(buf) {
		_, next, ok := frameAt(buf, off)
		if !ok {
			t.Fatalf("frameAt(%d) failed on pristine log", off)
		}
		bounds = append(bounds, next)
		off = next
	}
	for cut := 0; cut <= len(buf); cut++ {
		got, torn, err := decodeFrames(buf[:cut])
		if err != nil {
			t.Fatalf("cut=%d: unexpected error %v", cut, err)
		}
		wantN := 0
		for _, b := range bounds {
			if b <= cut {
				wantN++
			}
		}
		if len(got) != wantN {
			t.Fatalf("cut=%d: decoded %d records, want %d", cut, len(got), wantN)
		}
		wantTorn := cut
		if wantN > 0 {
			wantTorn = cut - bounds[wantN-1]
		}
		if torn != wantTorn {
			t.Fatalf("cut=%d: torn=%d, want %d", cut, torn, wantTorn)
		}
	}
}

// TestDecodeMidLogCorruption pins the loud-failure contract: damage with
// valid frames beyond it is ErrCorrupt, because truncating there would
// silently drop acknowledged records.
func TestDecodeMidLogCorruption(t *testing.T) {
	buf := frames(t, lifecycle(3)...)
	for _, flip := range []int{0, 1, 4, 9, 20} {
		bad := bytes.Clone(buf)
		bad[flip] ^= 0xff
		_, _, err := decodeFrames(bad)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip byte %d: got err=%v, want ErrCorrupt", flip, err)
		}
	}
}

// TestDecodeTailGarbage: trailing garbage with no valid frame beyond it is
// a torn tail, not corruption.
func TestDecodeTailGarbage(t *testing.T) {
	recs := lifecycle(1)
	buf := frames(t, recs...)
	garbage := append(bytes.Clone(buf), 0xde, 0xad, 0xbe, 0xef, 0x01, 0x02)
	got, torn, err := decodeFrames(garbage)
	if err != nil {
		t.Fatalf("decodeFrames: %v", err)
	}
	if len(got) != len(recs) || torn != 6 {
		t.Fatalf("got %d records torn=%d, want %d records torn=6", len(got), torn, len(recs))
	}
}

func TestStateApply(t *testing.T) {
	st := NewState()
	for _, r := range lifecycle(2) {
		if err := st.Apply(r); err != nil {
			t.Fatalf("Apply(%v): %v", r.Kind, err)
		}
	}
	if len(st.Tasks) != 2 {
		t.Fatalf("tasks: %d, want 2", len(st.Tasks))
	}
	if got := st.Stats.Counts(); got.Received != 2 || got.Completed != 2 || got.OnTime != 2 {
		t.Fatalf("stats: %+v", got)
	}
	p, ok := st.Profiles.Get("w1")
	if !ok {
		t.Fatal("worker w1 not restored")
	}
	if acc, ok := p.Accuracy("ocr"); !ok || acc != 1 {
		t.Fatalf("accuracy: %v %v, want 1", acc, ok)
	}
	if p.FitSamples() != 2 {
		t.Fatalf("fit samples: %d, want 2", p.FitSamples())
	}
	if !st.Tasks["t000"].Graded {
		t.Fatal("feedback did not mark task graded")
	}
	// Forget removes, deregister drops the worker.
	if err := st.Apply(Record{Seq: 100, Kind: event.KindForget, TaskID: "t000"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Tasks["t000"]; ok {
		t.Fatal("forget did not remove the task")
	}
	if err := st.Apply(Record{Seq: 101, Kind: event.KindDeregister, Worker: "w1"}); err != nil {
		t.Fatal(err)
	}
	if st.Profiles.Size() != 0 {
		t.Fatal("deregister did not remove the worker")
	}
}

func openTest(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(Options{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestStoreRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	if sum := s.Summary(); sum.Tasks != 0 || sum.LastSeq != 0 {
		t.Fatalf("fresh dir summary: %+v", sum)
	}
	s.TakeRecovered()
	for _, r := range lifecycle(5) {
		r.Seq = 0 // the store assigns sequence numbers
		if err := s.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := openTest(t, dir)
	defer s2.Close()
	sum := s2.Summary()
	if sum.Tasks != 5 || sum.Workers != 1 || sum.LastSeq != 21 {
		t.Fatalf("summary after reopen: %+v", sum)
	}
	st := s2.TakeRecovered()
	if st == nil || len(st.Tasks) != 5 {
		t.Fatalf("recovered state: %+v", st)
	}
	for id, rec := range st.Tasks {
		if rec.Status != taskq.Completed || !rec.Graded {
			t.Fatalf("task %s: status=%v graded=%v", id, rec.Status, rec.Graded)
		}
	}
	if s2.TakeRecovered() != nil {
		t.Fatal("TakeRecovered handed the state out twice")
	}
}

// TestStoreKillAtEveryOffset is the crash-injection sweep: truncate the
// segment at every byte, reopen, and require recovery to surface exactly
// the records that survived whole — fail loudly or replay cleanly, never
// silently drop an intact record.
func TestStoreKillAtEveryOffset(t *testing.T) {
	master := t.TempDir()
	s := openTest(t, master)
	s.TakeRecovered()
	recs := lifecycle(3)
	for _, r := range recs {
		r.Seq = 0
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(master, segmentName(1))
	seg, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	snapName := snapshotName(0)
	snap, err := os.ReadFile(filepath.Join(master, snapName))
	if err != nil {
		t.Fatal(err)
	}

	// Every byte offset is exercised cheaply at the decoder level by
	// TestDecodeTruncatedAtEveryOffset; here each cut pays three fsyncs
	// for a full store Open, so sweep the interesting offsets: every
	// frame boundary and its neighborhood, plus a coarse stride in
	// between.
	cuts := map[int]bool{0: true, len(seg): true}
	off := 0
	for off < len(seg) {
		_, next, ok := frameAt(seg, off)
		if !ok {
			t.Fatalf("frameAt(%d) failed on pristine segment", off)
		}
		for _, c := range []int{next - 1, next, next + 1, next + 5, (off + next) / 2} {
			if c >= 0 && c <= len(seg) {
				cuts[c] = true
			}
		}
		off = next
	}
	for c := 0; c < len(seg); c += 37 {
		cuts[c] = true
	}
	for cut := range cuts {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, snapName), snap, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), seg[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		wantRecs, _, err := decodeFrames(seg[:cut])
		if err != nil {
			t.Fatalf("cut=%d: pristine prefix decode failed: %v", cut, err)
		}
		s, err := Open(Options{Dir: dir, Logf: t.Logf})
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		st := s.TakeRecovered()
		want := NewState()
		for _, r := range wantRecs {
			if err := want.Apply(r); err != nil {
				t.Fatalf("cut=%d: apply: %v", cut, err)
			}
		}
		if len(st.Tasks) != len(want.Tasks) {
			t.Fatalf("cut=%d: recovered %d tasks, want %d", cut, len(st.Tasks), len(want.Tasks))
		}
		for id, rec := range want.Tasks {
			got, ok := st.Tasks[id]
			if !ok || got.Status != rec.Status || got.Graded != rec.Graded {
				t.Fatalf("cut=%d: task %s mismatch: got %+v want %+v", cut, id, got, rec)
			}
		}
		if sum := s.Summary(); sum.TailRecords != len(wantRecs) {
			t.Fatalf("cut=%d: summary says %d tail records, want %d", cut, sum.TailRecords, len(wantRecs))
		}
		s.Close()
	}
}

// TestStoreRefusesMidLogCorruption: a flipped byte with intact frames
// beyond it must refuse recovery, not truncate away acknowledged records.
func TestStoreRefusesMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	s.TakeRecovered()
	for _, r := range lifecycle(3) {
		r.Seq = 0
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(dir, segmentName(1))
	seg, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	seg[10] ^= 0xff
	if err := os.WriteFile(segPath, seg, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, Logf: t.Logf}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on corrupt log: err=%v, want ErrCorrupt", err)
	}
}

// TestStoreRefusesSequenceGap: a missing record (hand-edited or lost
// segment) must refuse recovery.
func TestStoreRefusesSequenceGap(t *testing.T) {
	dir := t.TempDir()
	buf := frames(t,
		Record{Seq: 1, Kind: event.KindSubmit, Task: taskRec("a", taskq.Unassigned, "")},
		Record{Seq: 3, Kind: event.KindSubmit, Task: taskRec("b", taskq.Unassigned, "")},
	)
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, Logf: t.Logf}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with seq gap: err=%v, want ErrCorrupt", err)
	}
}

// TestStoreRefusesTruncatedSnapshot: a snapshot missing its trailer (or
// lines) must refuse recovery rather than load partial state.
func TestStoreRefusesTruncatedSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	s.TakeRecovered()
	for _, r := range lifecycle(4) {
		r.Seq = 0
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, snapshotName(17))
	raw, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapPath, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, Logf: t.Logf}); err == nil {
		t.Fatal("Open loaded a truncated snapshot")
	}
}

// TestStoreCompaction: compaction rebuilds the snapshot at the durable
// boundary, removes the inputs, and recovery from the compacted dir sees
// the identical state.
func TestStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir)
	s.TakeRecovered()
	for _, r := range lifecycle(10) {
		r.Seq = 0
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if got := s.Stats().Compactions; got != 1 {
		t.Fatalf("compactions: %d, want 1", got)
	}
	// More records after the compaction land in the new segment.
	if err := s.Append(Record{Kind: event.KindSubmit, Task: taskRec("after", taskq.Unassigned, "")}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, segmentName(1))); !os.IsNotExist(err) {
		t.Fatalf("compaction left the old segment behind: %v", err)
	}

	s2 := openTest(t, dir)
	defer s2.Close()
	st := s2.TakeRecovered()
	if len(st.Tasks) != 11 {
		t.Fatalf("recovered %d tasks, want 11", len(st.Tasks))
	}
	if got := st.Stats.Counts(); got.Completed != 10 {
		t.Fatalf("recovered stats: %+v", got)
	}
	if sum := s2.Summary(); sum.LastSeq != 42 {
		t.Fatalf("summary: %+v", sum)
	}
}

// TestStoreSizeTriggeredCompaction: the CompactBytes threshold seals and
// compacts without an explicit call.
func TestStoreSizeTriggeredCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, CompactBytes: 2048, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	s.TakeRecovered()
	for _, r := range lifecycle(20) {
		r.Seq = 0
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().Compactions; got == 0 {
		t.Fatal("size threshold never triggered a compaction")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, dir)
	defer s2.Close()
	if st := s2.TakeRecovered(); len(st.Tasks) != 20 {
		t.Fatalf("recovered %d tasks, want 20", len(st.Tasks))
	}
}

// TestStoreAppendAfterClose: appends after Close fail loudly instead of
// vanishing.
func TestStoreAppendAfterClose(t *testing.T) {
	s := openTest(t, t.TempDir())
	s.TakeRecovered()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(Record{Kind: event.KindSubmit, Task: taskRec("x", taskq.Unassigned, "")}); err == nil {
		t.Fatal("Append after Close succeeded")
	}
}

// TestStoreConcurrentAppend exercises the append/flush paths under the
// race detector: many goroutines appending while the flusher commits.
func TestStoreConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, FsyncInterval: time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	s.TakeRecovered()
	done := make(chan error)
	const workers, per = 8, 50
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < per; i++ {
				id := fmt.Sprintf("w%d-t%d", w, i)
				if err := s.Append(Record{Kind: event.KindSubmit, Task: taskRec(id, taskq.Unassigned, "")}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, dir)
	defer s2.Close()
	if st := s2.TakeRecovered(); len(st.Tasks) != workers*per {
		t.Fatalf("recovered %d tasks, want %d", len(st.Tasks), workers*per)
	}
}

// FuzzJournalDecode hammers the frame decoder with arbitrary bytes: it
// must never panic, it must read the same records, torn tail and error
// class however the reader chunks the bytes (the walker streams through a
// bounded buffer), and whatever it accepts must re-encode to frames the
// decoder accepts again (decode∘encode = identity on the accepted set).
func FuzzJournalDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(mustFrames(lifecycle(2)...))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	seed := mustFrames(Record{Seq: 1, Kind: event.KindAttach, Worker: "w", Lat: 1, Lon: 2})
	f.Add(seed[:len(seed)-3])
	f.Add(mustFrames(Record{Seq: 1, Kind: event.KindRevoke, Task: taskRec("t", taskq.Unassigned, ""), Cause: taskq.CauseEq2}))
	pristine := mustFrames(lifecycle(3)...)
	f.Add(append(bytes.Clone(pristine), 0xde, 0xad, 0xbe, 0xef, 0x01)) // torn tail
	midLog := bytes.Clone(pristine)
	midLog[20] ^= 0xff // damage with valid frames beyond it
	f.Add(midLog)
	// A frame straddling the walker's buffer, and the log cut inside it.
	var long []byte
	for _, rec := range lifecycle(80) {
		if len(long) > walkBufBytes {
			break
		}
		long = append(long, mustFrames(rec)...)
	}
	f.Add(long)
	f.Add(long[:walkBufBytes+1])
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, torn, err := decodeFrames(data)
		for name, r := range map[string]io.Reader{
			"one byte": iotest.OneByteReader(bytes.NewReader(data)),
			"half":     iotest.HalfReader(bytes.NewReader(data)),
		} {
			got, gotTorn, gotErr := decodeFramesFrom(r)
			if gotTorn != torn || (gotErr == nil) != (err == nil) ||
				errors.Is(gotErr, ErrCorrupt) != errors.Is(err, ErrCorrupt) || !reflect.DeepEqual(got, recs) {
				t.Fatalf("%s reads: %d records torn=%d err=%v; whole reads: %d records torn=%d err=%v",
					name, len(got), gotTorn, gotErr, len(recs), torn, err)
			}
		}
		if err != nil {
			return
		}
		if torn < 0 || torn > len(data) {
			t.Fatalf("torn=%d out of range", torn)
		}
		var buf []byte
		for _, r := range recs {
			var aerr error
			if buf, aerr = appendFrame(buf, r); aerr != nil {
				t.Fatalf("accepted record fails re-encode: %v", aerr)
			}
		}
		again, torn2, err2 := decodeFrames(buf)
		if err2 != nil || torn2 != 0 || len(again) != len(recs) {
			t.Fatalf("re-decode: %d records torn=%d err=%v, want %d", len(again), torn2, err2, len(recs))
		}
	})
}

// TestKindStringAndFromEvent pins the on-disk kind numbers (a record's kind
// is its spine event's) and the spine event → WAL record mapping: the task
// kinds carry the record, forget and the worker-level kinds exactly the
// arguments they always carried, and batch summaries and unknown kinds are
// neither journaled nor accepted from a log.
func TestKindStringAndFromEvent(t *testing.T) {
	onDisk := map[event.Kind]string{
		1: "submit", 2: "assign", 3: "revoke", 4: "complete", 5: "expire",
		6: "forget", 7: "feedback", 8: "attach", 9: "deregister",
	}
	for k, want := range onDisk {
		if got := k.String(); got != want {
			t.Errorf("kind %d is %q, want %q", k, got, want)
		}
	}

	rec := *taskRec("t1", taskq.Completed, "w1")
	for _, ek := range []event.Kind{event.KindSubmit, event.KindAssign, event.KindRevoke,
		event.KindComplete, event.KindExpire} {
		got, ok := FromEvent(event.Event{Kind: ek, Task: "t1", Worker: "w1", Record: rec})
		if !ok || got.Kind != ek || got.Task == nil || got.Task.Task.ID != "t1" ||
			got.TaskID != "" || got.Worker != "" || got.Category != "" {
			t.Errorf("FromEvent(%v) = %+v ok=%v, want kind %v carrying t1 and nothing else", ek, got, ok, ek)
		}
		if err := got.validate(); err != nil {
			t.Errorf("FromEvent(%v) does not validate: %v", ek, err)
		}
	}
	at := rec.FinishedAt
	for _, tc := range []struct {
		ev   event.Event
		want Record
	}{
		{event.Event{Kind: event.KindForget, Task: "t1", Worker: "w1", At: at, Record: rec},
			Record{Kind: event.KindForget, TaskID: "t1"}},
		{event.Event{Kind: event.KindFeedback, Task: "t1", Worker: "w1", At: at, Positive: true, Record: rec},
			Record{Kind: event.KindFeedback, TaskID: "t1", Worker: "w1", Category: "ocr", Positive: true}},
		{event.Event{Kind: event.KindAttach, Worker: "w1", At: at, Loc: region.Point{Lat: 40, Lon: -74}},
			Record{Kind: event.KindAttach, Worker: "w1", Lat: 40, Lon: -74}},
		{event.Event{Kind: event.KindDeregister, Worker: "w1", At: at},
			Record{Kind: event.KindDeregister, Worker: "w1"}},
	} {
		got, ok := FromEvent(tc.ev)
		if !ok || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("FromEvent(%v) = %+v ok=%v, want %+v", tc.ev.Kind, got, ok, tc.want)
		}
		if err := got.validate(); err != nil {
			t.Errorf("FromEvent(%v) does not validate: %v", tc.ev.Kind, err)
		}
	}
	for _, k := range []event.Kind{0, event.KindBatch, event.KindBatch + 1} {
		if _, ok := FromEvent(event.Event{Kind: k, Batch: &event.BatchStats{}}); ok {
			t.Errorf("%v events must not be journaled", k)
		}
		if err := (Record{Kind: k, Task: &rec, TaskID: "t1", Worker: "w1"}).validate(); err == nil {
			t.Errorf("a %v record is accepted from a log", k)
		}
	}
}

// TestFromEventCause pins which records carry the event's cause: every
// revocation and a shed expiry do (replay counts them by it), a deadline
// expiry and the other kinds do not, so their bytes are what they were
// before the field existed.
func TestFromEventCause(t *testing.T) {
	rec := *taskRec("t1", taskq.Unassigned, "")
	for _, tc := range []struct {
		kind        event.Kind
		cause, want string
	}{
		{event.KindRevoke, taskq.CauseEq2, taskq.CauseEq2},
		{event.KindRevoke, taskq.CauseDetach, taskq.CauseDetach},
		{event.KindRevoke, taskq.CauseUndeliverable, taskq.CauseUndeliverable},
		{event.KindRevoke, taskq.CauseRecoverySweep, taskq.CauseRecoverySweep},
		{event.KindExpire, taskq.CauseShed, taskq.CauseShed},
		{event.KindExpire, taskq.CauseDeadline, ""},
		{event.KindSubmit, taskq.CauseSubmit, ""},
		{event.KindAssign, taskq.CauseBatch, ""},
		{event.KindComplete, taskq.CauseWorker, ""},
	} {
		got, _ := FromEvent(event.Event{Kind: tc.kind, Task: "t1", Cause: tc.cause, Record: rec})
		if got.Cause != tc.want {
			t.Errorf("FromEvent(%v, cause %q).Cause = %q, want %q", tc.kind, tc.cause, got.Cause, tc.want)
		}
		raw, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if has := bytes.Contains(raw, []byte(`"cause"`)); has != (tc.want != "") {
			t.Errorf("FromEvent(%v, cause %q) encodes as %s", tc.kind, tc.cause, raw)
		}
		if back := got.event(); back.Kind != tc.kind || back.Cause != tc.want || back.Task != "t1" {
			t.Errorf("Record.event() of %v/%q = %+v", tc.kind, tc.cause, back)
		}
	}
}

// TestParentFormatReplays feeds replay what the commit before the cause
// field and the shed counter wrote — byte for byte — and requires it to
// count as it did then: a cause-less revoke is a reassignment, a
// cause-less expiry a plain one, a shed-less snapshot header has shed 0.
func TestParentFormatReplays(t *testing.T) {
	const task = `{"Task":{"ID":"t1","Location":{"Lat":0,"Lon":0},"Deadline":"2026-01-01T00:01:00Z","Reward":1,"Category":"ocr","Description":"","Submitted":"2026-01-01T00:00:00Z"},`
	records := []string{
		`{"seq":3,"kind":3,"task":` + task + `"Status":0,"Worker":"","AssignedAt":"0001-01-01T00:00:00Z","FinishedAt":"0001-01-01T00:00:00Z","Attempts":1,"Graded":false}}`,
		`{"seq":4,"kind":5,"task":` + task + `"Status":3,"Worker":"","AssignedAt":"0001-01-01T00:00:00Z","FinishedAt":"2026-01-01T00:01:00Z","Attempts":1,"Graded":false}}`,
	}
	snap := filepath.Join(t.TempDir(), snapshotName(2))
	header := `{"v":1,"seq":2,"tasks":0,"workers":0,"stats":{"received":5,"assigned":4,"completed":2,"on_time":1,"expired":1,"reassigned":2}}`
	if err := os.WriteFile(snap, []byte(header+"\n{\"eof\":true}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, seq, err := readSnapshot(snap)
	if err != nil || seq != 2 {
		t.Fatalf("parent-format snapshot: seq %d, err %v", seq, err)
	}
	for _, raw := range records {
		var rec Record
		if err := json.Unmarshal([]byte(raw), &rec); err != nil {
			t.Fatal(err)
		}
		if err := rec.validate(); err != nil {
			t.Fatal(err)
		}
		if err := st.Apply(rec); err != nil {
			t.Fatal(err)
		}
	}
	want := event.Tally{Received: 5, Assigned: 4, Completed: 2, OnTime: 1, Expired: 2, Reassigned: 3}
	if got := st.Stats.Counts(); got != want {
		t.Fatalf("replayed %+v, want %+v", got, want)
	}
	if st.Tasks["t1"].Status != taskq.Expired {
		t.Fatalf("t1 after replay: %+v", st.Tasks["t1"])
	}
}

// TestStoreErrAndObserver covers the healthy-path plumbing: Err is nil
// while the store works, and an installed fsync observer sees every group
// commit's latency.
func TestStoreErrAndObserver(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var observed int
	s.SetFsyncObserver(func(seconds float64) {
		if seconds < 0 {
			t.Errorf("negative fsync latency %v", seconds)
		}
		observed++
	})
	if err := s.Append(Record{Kind: event.KindAttach, Worker: "w1", Lat: 40, Lon: -74}); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if observed == 0 {
		t.Fatal("fsync observer never called")
	}
	if err := s.Err(); err != nil {
		t.Fatalf("healthy store reports sticky error %v", err)
	}
}
