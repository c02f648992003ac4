package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"react/internal/event"
	"react/internal/taskq"
)

// checkPayload is the differential oracle, run on one WAL payload (and on
// the same bytes read as a snapshot task line): whatever the fast decoder
// accepts, encoding/json accepts and decodes to the same value; the full
// decoder agrees with encoding/json on everything; and every record
// encoding/json accepts encodes to the bytes json.Marshal gives. It reports
// whether the fast decoder took the payload.
func checkPayload(t *testing.T, payload []byte) (fast bool) {
	t.Helper()
	var want Record
	wantErr := json.Unmarshal(payload, &want)

	var got Record
	var task taskq.Record
	if fast = decodeRecordFast(payload, &got, &task); fast {
		if wantErr != nil {
			t.Fatalf("fast decoder accepted %q, encoding/json says %v", payload, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("fast decode of %q:\n got %+v\nwant %+v", payload, got, want)
		}
	}
	var full Record
	if err := decodeRecord(payload, &full, new(taskq.Record)); (err != nil) != (wantErr != nil) {
		t.Fatalf("decodeRecord(%q) = %v, encoding/json says %v", payload, err, wantErr)
	} else if err == nil && !reflect.DeepEqual(full, want) {
		t.Fatalf("decodeRecord(%q):\n got %+v\nwant %+v", payload, full, want)
	}
	if wantErr == nil {
		ref, refErr := json.Marshal(want)
		out, err := appendRecord([]byte("prefix"), &want)
		if (err != nil) != (refErr != nil) {
			t.Fatalf("appendRecord(%+v) = %v, json.Marshal says %v", want, err, refErr)
		}
		if err == nil && string(out) != "prefix"+string(ref) {
			t.Fatalf("appendRecord(%+v):\n got %s\nwant %s", want, out[len("prefix"):], ref)
		}
	}

	var wantLine, gotLine taskq.Record
	lineErr := json.Unmarshal(payload, &wantLine)
	if err := decodeTaskRecord(payload, &gotLine); (err != nil) != (lineErr != nil) {
		t.Fatalf("decodeTaskRecord(%q) = %v, encoding/json says %v", payload, err, lineErr)
	} else if err == nil && !reflect.DeepEqual(gotLine, wantLine) {
		t.Fatalf("decodeTaskRecord(%q):\n got %+v\nwant %+v", payload, gotLine, wantLine)
	}
	if lineErr == nil {
		ref, refErr := json.Marshal(wantLine)
		out, err := appendTaskRecord(nil, &wantLine)
		if (err != nil) != (refErr != nil) || (err == nil && !bytes.Equal(out, ref)) {
			t.Fatalf("appendTaskRecord(%+v):\n got %s (%v)\nwant %s (%v)", wantLine, out, err, ref, refErr)
		}
	}
	return fast
}

// goldenPayloads splits a golden segment into its payloads without going
// through the decoder under test.
func goldenPayloads(t testing.TB, wal []byte) (payloads [][]byte) {
	t.Helper()
	for off := 0; off < len(wal); {
		n := int(binary.LittleEndian.Uint32(wal[off:]))
		payloads = append(payloads, wal[off+frameHeaderLen:off+frameHeaderLen+n])
		off += frameHeaderLen + n
	}
	return payloads
}

func readGolden(t testing.TB, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestGoldenFiles holds the codec to the bytes encoding/json wrote before it
// existed: the encoder must reproduce the parent-written segment and snapshot
// byte for byte, the decoder must read every frame and line as json.Unmarshal
// does, and the fallback must have been taken exactly where the stream has a
// string the codec declines — so both branches are under test.
func TestGoldenFiles(t *testing.T) {
	recs := goldenRecords()
	wal, snap := readGolden(t, "golden.wal"), readGolden(t, "golden.snap")

	var got []byte
	for _, rec := range recs {
		before := len(got)
		got = append(got, frames(t, rec)...)
		if !bytes.HasPrefix(wal, got) {
			t.Fatalf("record seq %d encodes as\n%q\nthe golden segment has\n%q",
				rec.Seq, got[before:], wal[before:min(len(wal), len(got))])
		}
	}
	if len(got) != len(wal) {
		t.Fatalf("encoded %d bytes, golden segment has %d", len(got), len(wal))
	}

	declined := map[uint64]bool{15: true, 16: true, 17: true, 18: true, 22: true} // the escaped and non-ASCII strings
	payloads := goldenPayloads(t, wal)
	if len(payloads) != len(recs) {
		t.Fatalf("golden segment holds %d frames, want %d", len(payloads), len(recs))
	}
	for i, payload := range payloads {
		if fast := checkPayload(t, payload); fast == declined[recs[i].Seq] {
			t.Errorf("seq %d: fast decoder accepted = %v, want %v", recs[i].Seq, fast, !fast)
		}
		if _, ok := appendRecordFast(nil, &recs[i]); ok == declined[recs[i].Seq] {
			t.Errorf("seq %d: fast encoder accepted = %v, want %v", recs[i].Seq, ok, !ok)
		}
	}

	st := NewState()
	if _, err := walkFrames(bytes.NewReader(wal), func(r *Record) error { return st.Apply(*r) }); err != nil {
		t.Fatal(err)
	}
	if out := encodeFull(t, st, recs[len(recs)-1].Seq); !bytes.Equal(out, snap) {
		t.Fatalf("replayed state encodes as\n%s\nthe golden snapshot is\n%s", out, snap)
	}

	// And back: the golden snapshot reads to a state that writes it again.
	back, seq, err := readSnapshot(filepath.Join("testdata", "golden.snap"))
	if err != nil || seq != recs[len(recs)-1].Seq {
		t.Fatalf("readSnapshot(golden.snap): seq %d, err %v", seq, err)
	}
	if out := encodeFull(t, back, seq); !bytes.Equal(out, snap) {
		t.Fatalf("golden snapshot re-encodes as\n%s\nwant\n%s", out, snap)
	}
	lines := bytes.Split(snap, []byte("\n"))
	for _, line := range lines[1 : 1+len(back.Tasks)] {
		checkPayload(t, line)
	}
}

// TestAppendSteadyStateAllocatesNothing: with both group-commit buffers
// grown, a canonical-form record is sequenced, encoded and framed without a
// single allocation — the sink runs under the task store's lock.
func TestAppendSteadyStateAllocatesNothing(t *testing.T) {
	// The flusher never fires on its own here, and the appends below stay
	// under fsyncBytes, so no commit races the measurement.
	s, err := Open(Options{Dir: t.TempDir(), FsyncInterval: time.Hour, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	recs := []Record{
		{Kind: event.KindSubmit, Task: taskRec("t0000001", taskq.Unassigned, "")},
		{Kind: event.KindAssign, Task: taskRec("t0000001", taskq.Assigned, "w1")},
		{Kind: event.KindRevoke, Cause: taskq.CauseEq2, Task: taskRec("t0000001", taskq.Unassigned, "")},
		{Kind: event.KindComplete, Task: taskRec("t0000001", taskq.Completed, "w1")},
		{Kind: event.KindFeedback, TaskID: "t0000001", Worker: "w1", Category: "ocr", Positive: true},
		{Kind: event.KindForget, TaskID: "t0000001"},
	}
	const runs = 200
	for buffer := 0; buffer < 2; buffer++ { // the one being filled, and the spare
		for i := 0; i < 2*runs; i++ {
			if err := s.Append(recs[i%len(recs)]); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	if allocs := testing.AllocsPerRun(runs, func() {
		if err := s.Append(recs[i%len(recs)]); err != nil {
			t.Fatal(err)
		}
		i++
	}); allocs != 0 {
		t.Fatalf("%.1f allocs per steady-state Append, want 0", allocs)
	}
	// The same from a spine event, as the server's sink does it: the task
	// state FromEvent copies out of the event must stay on the stack, which
	// it does only while nothing under Append lets the record escape.
	if err := s.Sync(); err != nil { // on to the other warmed buffer
		t.Fatal(err)
	}
	ev := event.Event{Kind: event.KindAssign, Task: "t0000001", Cause: taskq.CauseBatch,
		Record: *taskRec("t0000001", taskq.Assigned, "w1")}
	if allocs := testing.AllocsPerRun(runs, func() {
		if rec, ok := FromEvent(ev); ok {
			_ = s.Append(rec)
		}
	}); allocs != 0 {
		t.Fatalf("%.1f allocs per FromEvent+Append, want 0", allocs)
	}
	if pending := s.Stats().PendingBytes; pending >= fsyncBytes {
		t.Fatalf("%d bytes pending: the measurement crossed a group commit", pending)
	}
}

// FuzzRecordCodec runs the differential oracle on arbitrary payload bytes:
// the fast decoder declines or equals json.Unmarshal, and every record
// json.Unmarshal accepts encodes to what json.Marshal gives.
func FuzzRecordCodec(f *testing.F) {
	for _, payload := range goldenPayloads(f, readGolden(f, "golden.wal")) {
		f.Add(payload)
	}
	for _, line := range bytes.Split(readGolden(f, "golden.snap"), []byte("\n")) {
		f.Add(line)
	}
	const task = `{"Task":{"ID":"t1","Location":{"Lat":0,"Lon":-0},"Deadline":"2026-01-01T00:01:00Z","Reward":1,"Category":"ocr","Description":"","Submitted":"2026-01-01T00:00:00Z"},"Status":0,"Worker":"","AssignedAt":"0001-01-01T00:00:00Z","FinishedAt":"0001-01-01T00:00:00Z","Attempts":1,"Graded":false}`
	for _, s := range []string{
		// Forms encoding/json reads and the canonical decoder must decline
		// or read identically.
		`{"seq":1,"kind":8,"worker":"w1","lat":4e1,"lon":-74.0}`,
		`{"seq":1,"kind":8,"worker":"w1","lat":1E+2,"lon":0.5e-3}`,
		`{"seq":1,"kind":8,"worker":"w1","lat":1e999}`,
		`{"seq":1,"kind":8,"worker":"w1","lat":01}`,
		`{"seq":1,"kind":8,"worker":"w1","lat":-}`,
		`{"seq":1,"kind":8,"worker":"w1","lat":9007199254740993}`,
		`{"seq":1,"kind":8,"worker":"w1","lat":123456789012345678901234567890}`,
		`{"seq":18446744073709551615,"kind":8,"worker":"w1"}`,
		`{"seq":18446744073709551616,"kind":8,"worker":"w1"}`,
		`{"seq":1.0,"kind":8,"worker":"w1"}`,
		`{"seq":1,"kind":256,"worker":"w1"}`,
		`{"seq":1,"kind":-1,"worker":"w1"}`,
		`{"seq":01,"kind":8,"worker":"w1"}`,
		`{"kind":8,"seq":1,"worker":"w1"}`,
		`{"seq":1,"kind":8,"worker":"w1"} `,
		`{ "seq":1,"kind":8,"worker":"w1"}`,
		`{"seq":1,"kind":8,"worker":"w1","extra":1}`,
		`{"seq":1,"kind":8,"worker":"w1","worker":"w2"}`,
		`{"seq":1,"kind":8,"worker":"w\u0031"}`,
		`{"seq":1,"kind":8,"worker":"w` + "\x7f" + `"}`,
		`{"seq":1,"kind":8,"worker":"w` + "\xff" + `"}`,
		`{"seq":1,"kind":8,"worker":"` + "\t" + `"}`,
		`{"seq":1,"kind":8,"worker":null}`,
		`{"seq":1,"kind":7,"task_id":"t1","worker":"w1","positive":false}`,
		`{"seq":1,"kind":7,"task_id":"t1","worker":"","cause":""}`,
		`{"seq":1,"kind":1,"task":null}`,
		`{"seq":1,"kind":1,"task":` + task + `}`,
		`{"seq":1,"kind":1,"task":` + task + `,"cause":"shed"}`,
		`{"seq":1,"kind":1,"task":{"Task":{"ID":"t1"}}}`,
		`{"SEQ":1,"Kind":8,"Worker":"w1"}`,
		task,
		`{"Task":{"ID":"t1","Location":{"Lat":0,"Lon":0},"Deadline":"2026-01-01T00:01:00+24:00","Reward":1,"Category":"","Description":"","Submitted":"2026-01-01t00:00:00z"},"Status":-0,"Worker":"","AssignedAt":"0000-01-01T00:00:00Z","FinishedAt":"2026-01-01T00:00:00,5Z","Attempts":-12,"Graded":true}`,
		`{"Task":{"ID":"t1","Location":{"Lat":0,"Lon":0},"Deadline":"2026-01-01T00:01:00.000000000Z","Reward":1,"Category":"","Description":"","Submitted":"2026-02-30T00:00:00Z"},"Status":1234567890123456789,"Worker":"","AssignedAt":"0001-01-01T00:00:00Z","FinishedAt":null,"Attempts":0,"Graded":true}`,
		`{"Task":{"ID":"t1","Location":{"Lat":0,"Lon":0},"Deadline":"2026-01-01T00:01:00Z\"","Reward":1`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, payload []byte) { checkPayload(t, payload) })
}
