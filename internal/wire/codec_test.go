package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"react/internal/admission"
)

// The pooled codec and encoding/json must agree forever: every frame the
// hand-written encoder emits has to decode (by either decoder) into the
// message that produced it, and every frame encoding/json would have
// produced has to mean the same thing to the reusable scratch decoder.
// codecCorpus holds one message per frame shape the protocol uses, plus
// the string/float edge cases that make hand-written JSON encoders rot.

func boolPtr(b bool) *bool { return &b }

func codecCorpus() []Message {
	return []Message{
		{Type: "register", Seq: 1, Worker: "alice", Lat: 37.9838, Lon: 23.7275},
		{Type: "availability", Seq: 2, Worker: "alice", Available: boolPtr(true)},
		{Type: "availability", Seq: 3, Worker: "alice", Available: boolPtr(false)},
		{Type: "move", Seq: 4, Worker: "alice", Lat: -37.5, Lon: 144.9},
		{Type: "submit", Seq: 5, Task: &TaskPayload{
			ID: "t1", Lat: 37.98, Lon: 23.73, DeadlineMS: 60000, Reward: 2.5,
			Category: "traffic", Description: "is the on-ramp jammed?",
		}},
		{Type: "submit", Seq: 6, Task: &TaskPayload{
			ID: "t\"2\\", DeadlineMS: -5,
			Description: "line one\nline two\ttab\rcr \x01ctl Ωθήνα ταξί 🚕",
		}},
		{Type: "complete", Seq: 7, Worker: "alice", TaskID: "t1", Answer: "yes, jammed"},
		{Type: "feedback", Seq: 8, TaskID: "t1", Positive: boolPtr(true)},
		{Type: "error", Seq: 9, Error: "no such task: t9"},
		{Type: "ok", Seq: 10},
		{Type: "ok", Seq: 11, Assignment: &AssignmentPayload{
			TaskID: "t1", WorkerID: "alice", Category: "traffic",
			Description: "look left", Lat: 1e-12, Lon: -179.999999999, DeadlineMS: 30000, Reward: 0.25,
		}},
		{Type: "assignment", Assignment: &AssignmentPayload{TaskID: "t3", WorkerID: "bob", DeadlineMS: 1}},
		{Type: "result", Result: &ResultPayload{TaskID: "t1", WorkerID: "alice", Answer: "no", MetDeadline: true}},
		{Type: "result", Result: &ResultPayload{TaskID: "t4", Expired: true}},
		{Type: "ok", Seq: 12, Stats: &StatsPayload{
			Received: 100, Assigned: 90, Completed: 80, OnTime: 70,
			Expired: 10, Shed: 3, Reassigned: 5, Batches: 40, WorkersOnline: 8, WorkersKnown: 12,
		}},
		{Type: "ok", Seq: 13, Regions: []RegionStatsPayload{
			{Region: "athens-ne", Stats: StatsPayload{Received: 1}},
			{Region: "athens-sw", Stats: StatsPayload{Completed: 2}},
		}},
		{Type: "ok", Seq: 14, Status: &TaskStatusPayload{TaskID: "t1", State: "assigned", Worker: "alice"}},
		{Type: "ok", Seq: 15, Status: &TaskStatusPayload{TaskID: "t2", State: "completed", MetDeadline: true}},
		{Type: "event", Event: &EventPayload{
			Seq: 99, Kind: "reassigned", TaskID: "t1", Worker: "alice", AtUnixMS: 1754550000123,
			Cause: "eq2", Probability: 0.125, Status: "assigned", MetDeadline: true, Attempts: 3,
		}},
		{Type: "event", Event: &EventPayload{Seq: 100, Kind: "expired", TaskID: "t5", AtUnixMS: -1}},
		{Type: "error", Seq: 16, Error: "queue full", Code: CodeQueueFull},
		{Type: "error", Seq: 17, Error: "rate limited", Code: CodeRejectedRate, Admission: &AdmissionPayload{
			Status: string(admission.StatusRejectedRate), RetryAfterMS: 1500,
		}},
		{Type: "error", Seq: 18, Error: "hopeless deadline", Code: CodeRejectedProbability, Admission: &AdmissionPayload{
			Status: string(admission.StatusRejectedProbability), Probability: 0.03125, Floor: 0.5,
		}},
		{Type: "ok", Seq: 19, Admission: &AdmissionPayload{
			Status: string(admission.StatusAdmitted), Probability: 0.9990234375,
		}},
	}
}

// TestFrameCodecMatchesEncodingJSON drives the corpus through all four
// codec quadrants: hand encode -> std decode, std encode -> scratch
// decode, and hand encode -> scratch decode must all reproduce the
// original message, and every hand-encoded frame must be exactly one line.
func TestFrameCodecMatchesEncodingJSON(t *testing.T) {
	for _, m := range codecCorpus() {
		m := m
		frame := AppendFrame(nil, &m)
		if frame[len(frame)-1] != '\n' {
			t.Fatalf("frame for %+v missing trailing newline", m)
		}
		if i := bytes.IndexByte(frame[:len(frame)-1], '\n'); i >= 0 {
			t.Fatalf("frame for %+v has interior newline at %d: %q", m, i, frame)
		}

		var viaStd Message
		if err := json.Unmarshal(frame, &viaStd); err != nil {
			t.Fatalf("encoding/json rejects hand-encoded frame %q: %v", frame, err)
		}
		if !reflect.DeepEqual(viaStd, m) {
			t.Errorf("hand encode -> std decode mismatch:\nframe: %s\n got: %+v\nwant: %+v", frame, viaStd, m)
		}

		stdFrame, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("json.Marshal(%+v): %v", m, err)
		}
		var scr decodeScratch
		viaScratch, err := scr.decode(stdFrame)
		if err != nil {
			t.Fatalf("scratch decoder rejects encoding/json frame %q: %v", stdFrame, err)
		}
		if !reflect.DeepEqual(*viaScratch, m) {
			t.Errorf("std encode -> scratch decode mismatch:\nframe: %s\n got: %+v\nwant: %+v", stdFrame, *viaScratch, m)
		}

		viaBoth, err := scr.decode(frame)
		if err != nil {
			t.Fatalf("scratch decoder rejects hand-encoded frame %q: %v", frame, err)
		}
		if !reflect.DeepEqual(*viaBoth, m) {
			t.Errorf("hand encode -> scratch decode mismatch:\nframe: %s\n got: %+v\nwant: %+v", frame, *viaBoth, m)
		}
	}
}

// TestFrameEncodeOmitsZeroFields pins the omitempty behaviour byte-for-
// byte on minimal messages, where a regression would hide inside
// round-trip equality.
func TestFrameEncodeOmitsZeroFields(t *testing.T) {
	for _, tc := range []struct {
		m    Message
		want string
	}{
		{Message{Type: "ok"}, `{"type":"ok"}` + "\n"},
		{Message{Type: "ok", Seq: 7}, `{"type":"ok","seq":7}` + "\n"},
		{Message{Type: "stats", Seq: 1, Worker: "w"}, `{"type":"stats","seq":1,"worker":"w"}` + "\n"},
		{Message{Type: "error", Seq: 2, Error: "bad"}, `{"type":"error","seq":2,"error":"bad"}` + "\n"},
		{Message{Type: "error", Seq: 4, Error: "full", Code: CodeQueueFull},
			`{"type":"error","seq":4,"error":"full","code":"queue_full"}` + "\n"},
		{Message{Type: "ok", Seq: 5, Admission: &AdmissionPayload{Status: "admitted"}},
			`{"type":"ok","seq":5,"admission":{"status":"admitted"}}` + "\n"},
	} {
		if got := string(AppendFrame(nil, &tc.m)); got != tc.want {
			t.Errorf("AppendFrame(%+v) = %q, want %q", tc.m, got, tc.want)
		}
	}
}

// TestFrameFloatRoundTrip checks coordinates and rewards survive encode ->
// decode bit-for-bit, and that the non-finite degradation is the
// documented one (0, not a broken frame).
func TestFrameFloatRoundTrip(t *testing.T) {
	for _, f := range []float64{
		37.9838, -23.7275, 1e-12, 5e-324, math.MaxFloat64, 1.0 / 3.0, 123456789.123456789,
	} {
		m := Message{Type: "move", Lat: f, Lon: -f}
		var scr decodeScratch
		got, err := scr.decode(AppendFrame(nil, &m))
		if err != nil {
			t.Fatalf("decode lat=%g: %v", f, err)
		}
		if math.Float64bits(got.Lat) != math.Float64bits(f) || math.Float64bits(got.Lon) != math.Float64bits(-f) {
			t.Errorf("float round trip lat=%g -> %g, lon=%g -> %g", f, got.Lat, -f, got.Lon)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		m := Message{Type: "move", Lat: f}
		frame := AppendFrame(nil, &m)
		if !strings.Contains(string(frame), `"lat":0`) {
			t.Errorf("non-finite lat %v encoded as %q, want degradation to 0", f, frame)
		}
		var scr decodeScratch
		if _, err := scr.decode(frame); err != nil {
			t.Errorf("non-finite degradation produced unparseable frame %q: %v", frame, err)
		}
	}
}

// TestDecodeScratchReuse proves the scratch really is reusable: payloads
// from an earlier frame never bleed into a later one, and a frame with a
// wrongly-typed field still surfaces its Seq for the error reply.
func TestDecodeScratchReuse(t *testing.T) {
	var scr decodeScratch
	m, err := scr.decode([]byte(`{"type":"assignment","assignment":{"task_id":"t1","worker_id":"alice"}}`))
	if err != nil || m.Assignment.TaskID != "t1" {
		t.Fatalf("first decode: %+v, %v", m, err)
	}
	m, err = scr.decode([]byte(`{"type":"event","event":{"seq":5,"kind":"expired","task_id":"t2","at_unix_ms":1}}`))
	if err != nil {
		t.Fatalf("second decode: %v", err)
	}
	if m.Assignment != nil {
		t.Errorf("assignment payload leaked across decode calls: %+v", m.Assignment)
	}
	if m.Event.Kind != "expired" || m.Event.TaskID != "t2" {
		t.Errorf("event payload wrong after reuse: %+v", m.Event)
	}

	// Available and Positive point into the scratch too: present means
	// non-nil with this frame's value, absent means nil again.
	m, err = scr.decode([]byte(`{"type":"available","seq":1,"available":true}`))
	if err != nil || m.Available == nil || !*m.Available || m.Positive != nil {
		t.Fatalf("available frame: %+v, %v", m, err)
	}
	m, err = scr.decode([]byte(`{"type":"feedback","seq":2,"task_id":"t1","positive":false}`))
	if err != nil || m.Positive == nil || *m.Positive {
		t.Fatalf("feedback frame: %+v, %v", m, err)
	}
	if m.Available != nil {
		t.Errorf("available leaked across decode calls: %v", *m.Available)
	}
	if m, _ = scr.decode([]byte(`{"type":"ping","seq":3}`)); m.Available != nil || m.Positive != nil {
		t.Errorf("optional booleans leaked into a frame without them: %+v", m)
	}

	m, err = scr.decode([]byte(`{"type":"complete","seq":42,"answer":5}`))
	if err == nil {
		t.Fatal("wrongly-typed answer field decoded without error")
	}
	if m.Seq != 42 {
		t.Errorf("partial fill lost Seq: got %d, want 42 (error replies echo it)", m.Seq)
	}
}

// decodeBothWays runs one line (no trailing newline, as bufio.Scanner hands
// it over) through the fast path alone and through encoding/json, and fails
// unless the fast path either declined or produced exactly what encoding/json
// did — payload pointers nil for the same keys included. It reports whether
// the fast path was taken.
func decodeBothWays(t *testing.T, line []byte) (fast bool) {
	t.Helper()
	var viaFast, viaStd decodeScratch
	viaFast.reset()
	fast = viaFast.decodeFast(line)
	viaStd.reset()
	stdErr := json.Unmarshal(line, &viaStd.msg)
	if fast {
		if stdErr != nil {
			t.Fatalf("fast path accepts %q, encoding/json rejects it: %v", line, stdErr)
		}
		if got, want := viaFast.msg, viaStd.msg; !reflect.DeepEqual(got, want) {
			t.Fatalf("fast path and encoding/json disagree on %q:\nfast: %+v\n std: %+v", line, got, want)
		}
	}
	// Whichever path decode takes, callers see encoding/json's verdict.
	var scr decodeScratch
	m, err := scr.decode(line)
	if (err == nil) != (stdErr == nil) || (err != nil && err.Error() != stdErr.Error()) {
		t.Fatalf("decode(%q) = %v, encoding/json says %v", line, err, stdErr)
	}
	if got, want := *m, viaStd.msg; !reflect.DeepEqual(got, want) {
		t.Fatalf("decode(%q):\n got %+v\nwant %+v", line, got, want)
	}
	return fast
}

// TestDecodeFastMatchesJSON holds the fast decoder to its two promises. It
// is *taken* on every hot frame AppendFrame produces — so a struct-tag or
// field-order edit that silently turns it off fails here, not in a profile —
// and on anything, canonical or not, it declines or agrees with
// encoding/json on every field.
func TestDecodeFastMatchesJSON(t *testing.T) {
	for _, m := range codecCorpus() {
		frame := AppendFrame(nil, &m)
		line := frame[:len(frame)-1]
		// Cold by design: the three reply payloads the fast path leaves to
		// encoding/json, and text the strict cursor does not read.
		cold := m.Stats != nil || m.Regions != nil || m.Status != nil ||
			bytes.ContainsFunc(line, func(r rune) bool { return r == '\\' || r < 0x20 || r >= 0x7f })
		if fast := decodeBothWays(t, line); fast == cold {
			t.Errorf("fast path taken = %v on %q, want %v", fast, line, !cold)
		}
		if decodeBothWays(t, frame) {
			t.Errorf("fast path took a frame with its newline still on: %q", frame)
		}
	}
	for _, f := range hotTaskFrames() {
		frame := AppendFrame(nil, &f.m)
		if !decodeBothWays(t, frame[:len(frame)-1]) {
			t.Errorf("fast path declined hot frame %q", frame)
		}
	}
	for _, line := range []string{
		`{"seq":7,"type":"ok"}`,  // reordered keys
		`{"type":"ok","seq":0}`,  // a zero AppendFrame omits
		`{"type":"ok", "seq":7}`, // whitespace
		` {"type":"ok","seq":7}`,
		`{"type":"submit","seq":5,"task":null}`, // null payload
		`{"type":"ok","seq":7,"seq":8}`,         // repeated key
		`{"type":"ok","seq":7,"worker":"a","worker":"b"}`,
		`{"Type":"ok","SEQ":7}`, // encoding/json folds case
		`{"type":"submit","task":{"id":"t","lat":0,"lon":0,"deadline_ms":1e3,"reward":0,"category":"","description":""}}`, // exponent in an integer field
		`{"type":"ok","seq":1234567890123456789}`,  // 19 digits
		`{"type":"ok","seq":18446744073709551616}`, // overflows uint64
		`{"type":"ok","seq":-1}`,
		`{"type":"ok","seq":07}`,                        // leading zero
		"{\"type\":\"complete\",\"answer\":\"a\x7fb\"}", // DEL
		`{"type":"complete","answer":"Ωθήνα"}`,          // UTF-8
		"{\"type\":\"complete\",\"answer\":\"\xff\"}",   // invalid UTF-8
		`{"type":"complete","answer":"a\nb"}`,           // escape
		`{"type":"ok","seq":7}garbage`,                  // trailing garbage
		`{"type":"ok","seq":7}}`,
		`{"type":"ok","seq":7`,        // truncated
		`{"type":"move","lat":1e400}`, // float out of range
		`{"type":"move","lat":-0,"lon":1E+2}`,
		`{"type":"move","lat":.5}`, // not a JSON number
		`{"type":"move","lat":1.}`,
		`{"type":"available","available":1}`,                                             // wrong type
		`{"type":"result","result":{"task_id":"t","expired":true,"met_deadline":false}}`, // payload keys reordered
		`{"type":"event","event":{"seq":1,"kind":"assign","task_id":"t","at_unix_ms":5,"attempts":2147483648}}`,
		`{"type":"ok","admission":{"status":"admitted","retry_after_ms":-9223372036854775808}}`,
		`{"type":"ok","unknown":1}`,     // unknown key
		`{"type":"frobnicate","seq":3}`, // a verb outside the protocol
		`{}`,
		``,
	} {
		decodeBothWays(t, []byte(line))
	}

	// Presence is pointer nilness on both paths: after a frame carrying a
	// payload, a frame omitting it decodes to a nil pointer whether the
	// fast path (first line) or encoding/json (second) reads it.
	for _, line := range []string{`{"type":"ok","seq":7}`, `{"type":"ok", "seq":7}`} {
		var scr decodeScratch
		for _, f := range hotTaskFrames() {
			frame := AppendFrame(nil, &f.m)
			if _, err := scr.decode(frame[:len(frame)-1]); err != nil {
				t.Fatal(err)
			}
		}
		m, err := scr.decode([]byte(line))
		if err != nil || m.Task != nil || m.Assignment != nil || m.Result != nil || m.Event != nil {
			t.Errorf("decode(%q) = %+v, %v; want every payload pointer nil", line, m, err)
		}
	}
}

// TestEncodeFramePoolReuse cycles the frame pool and checks a recycled
// buffer starts clean — stale bytes from a longer earlier frame must never
// leak into a shorter later one.
func TestEncodeFramePoolReuse(t *testing.T) {
	long := Message{Type: "submit", Task: &TaskPayload{ID: "t1", Description: strings.Repeat("x", 2048)}}
	short := Message{Type: "ok", Seq: 3}
	for i := 0; i < 8; i++ {
		fb := encodeFrame(&long)
		fb.release()
		fb2 := encodeFrame(&short)
		if got := string(fb2.b); got != `{"type":"ok","seq":3}`+"\n" {
			t.Fatalf("iteration %d: recycled buffer produced %q", i, got)
		}
		fb2.release()
	}
}

// TestEncodeHotFramesZeroAllocs holds the codec's steady-state contract:
// encoding the frames the hot path is made of (the same four
// BenchmarkWireEncode measures) into a recycled buffer — what encodeFrame
// hands AppendFrame once the pool is warm — must never touch the heap.
// One alloc here means someone reintroduced a fmt/reflect path on the
// frame hot loop.
func TestEncodeHotFramesZeroAllocs(t *testing.T) {
	frames := []struct {
		name string
		m    Message
	}{
		{"assignment", Message{Type: "assignment", Assignment: &AssignmentPayload{
			TaskID: "t00001234", WorkerID: "w042", Category: "traffic",
			Description: "is the on-ramp at exit 14 jammed?",
			Lat:         37.9838, Lon: 23.7275, DeadlineMS: 60000, Reward: 0.25,
		}}},
		{"submit", Message{Type: "submit", Seq: 7, Task: &TaskPayload{
			ID: "t00001234", Lat: 37.9838, Lon: 23.7275, DeadlineMS: 60000,
			Reward: 0.25, Category: "traffic", Description: "is the on-ramp at exit 14 jammed?",
		}}},
		{"result", Message{Type: "result", Result: &ResultPayload{
			TaskID: "t00001234", WorkerID: "w042", Answer: "yes, jammed", MetDeadline: true,
		}}},
		{"event", Message{Type: "event", Event: &EventPayload{
			Seq: 991, Kind: "complete", TaskID: "t00001234", Worker: "w042",
			AtUnixMS: 1754550000123, Status: "completed", MetDeadline: true, Attempts: 1,
		}}},
	}
	for _, f := range frames {
		fb := encodeFrame(&f.m) // sized by the pool, as on the hot path
		if allocs := testing.AllocsPerRun(1000, func() {
			fb.b = AppendFrame(fb.b[:0], &f.m)
		}); allocs != 0 {
			t.Errorf("%s: %.1f allocs/op on steady-state encode, want 0", f.name, allocs)
		}
		fb.release()
	}
}

// hotFrame is one frame of a task's life on the wire with the number of heap
// allocations decoding it is allowed: its strings (Type is interned), plus
// the admission verdict where the frame carries one.
type hotFrame struct {
	name   string
	m      Message
	allocs float64
}

// hotTaskFrames is the eight frames one task costs end to end — submit and
// its reply, the assignment push, complete and its reply, the result push,
// feedback and its reply — shaped like the benchmark's.
func hotTaskFrames() []hotFrame {
	return []hotFrame{
		{"submit", Message{Type: "submit", Seq: 7, Task: &TaskPayload{
			ID: "t00001234", Lat: 37.9838, Lon: 23.7275, DeadlineMS: 60000,
			Reward: 0.25, Category: "traffic", Description: "is the on-ramp at exit 14 jammed?",
		}}, 3},
		{"submit-ok", Message{Type: "ok", Seq: 7, Admission: &AdmissionPayload{
			Status: "admitted", Probability: 0.9990234375,
		}}, 2},
		{"assignment", Message{Type: "assignment", Assignment: &AssignmentPayload{
			TaskID: "t00001234", WorkerID: "w042", Category: "traffic",
			Description: "is the on-ramp at exit 14 jammed?",
			Lat:         37.9838, Lon: 23.7275, DeadlineMS: 59987, Reward: 0.25,
		}}, 4},
		{"complete", Message{Type: "complete", Seq: 311, Worker: "w042", TaskID: "t00001234", Answer: "yes, jammed"}, 3},
		{"complete-ok", Message{Type: "ok", Seq: 311}, 0},
		{"result", Message{Type: "result", Result: &ResultPayload{
			TaskID: "t00001234", WorkerID: "w042", Answer: "yes, jammed", MetDeadline: true,
		}}, 3},
		{"feedback", Message{Type: "feedback", Seq: 8, TaskID: "t00001234", Positive: boolPtr(true)}, 1},
		{"feedback-ok", Message{Type: "ok", Seq: 8}, 0},
	}
}

// TestDecodeHotFramesAllocBudget is the decode-side twin of
// TestEncodeHotFramesZeroAllocs: a hot frame costs its strings and nothing
// else. More means the frame fell off the fast path (encoding/json costs
// several allocations a frame before the first string) or the scratch
// stopped being reused.
func TestDecodeHotFramesAllocBudget(t *testing.T) {
	var scr decodeScratch
	for _, f := range hotTaskFrames() {
		frame := AppendFrame(nil, &f.m)
		line := frame[:len(frame)-1]
		if allocs := testing.AllocsPerRun(1000, func() {
			if _, err := scr.decode(line); err != nil {
				t.Fatal(err)
			}
		}); allocs != f.allocs {
			t.Errorf("%s: %.1f allocs/op on steady-state decode, want %.0f", f.name, allocs, f.allocs)
		}
	}
}

var benchSink *Message

// BenchmarkDecodeHotFrames times decoding the eight frames of one task, as
// the read loops do it (fast) and as they did before the fast path (json):
// ns/op and allocs/op are per task, not per frame.
func BenchmarkDecodeHotFrames(b *testing.B) {
	var lines [][]byte
	for _, f := range hotTaskFrames() {
		frame := AppendFrame(nil, &f.m)
		lines = append(lines, frame[:len(frame)-1])
	}
	b.Run("fast", func(b *testing.B) {
		var scr decodeScratch
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, line := range lines {
				benchSink, _ = scr.decode(line)
			}
		}
	})
	b.Run("json", func(b *testing.B) {
		var scr decodeScratch
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, line := range lines {
				scr.reset()
				_ = json.Unmarshal(line, &scr.msg)
				benchSink = &scr.msg
			}
		}
	})
}
