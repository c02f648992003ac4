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

// normalizePresence maps a decoded message onto the presence semantics the
// read loops use: a pre-pointed payload whose key field is zero means "not
// in the frame" and becomes nil, so scratch-decoded and pointer-decoded
// messages compare equal.
func normalizePresence(m Message) Message {
	if m.Task != nil && m.Task.ID == "" {
		m.Task = nil
	}
	if m.Assignment != nil && m.Assignment.TaskID == "" {
		m.Assignment = nil
	}
	if m.Result != nil && m.Result.TaskID == "" {
		m.Result = nil
	}
	if m.Event != nil && m.Event.Kind == "" {
		m.Event = nil
	}
	return m
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
		if want := normalizePresence(m); !reflect.DeepEqual(normalizePresence(viaStd), want) {
			t.Errorf("hand encode -> std decode mismatch:\nframe: %s\n got: %+v\nwant: %+v", frame, viaStd, want)
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
		if want := normalizePresence(m); !reflect.DeepEqual(normalizePresence(*viaScratch), want) {
			t.Errorf("std encode -> scratch decode mismatch:\nframe: %s\n got: %+v\nwant: %+v", stdFrame, *viaScratch, want)
		}

		viaBoth, err := scr.decode(frame)
		if err != nil {
			t.Fatalf("scratch decoder rejects hand-encoded frame %q: %v", frame, err)
		}
		if want := normalizePresence(m); !reflect.DeepEqual(normalizePresence(*viaBoth), want) {
			t.Errorf("hand encode -> scratch decode mismatch:\nframe: %s\n got: %+v\nwant: %+v", frame, *viaBoth, want)
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
	if m.Assignment.TaskID != "" {
		t.Errorf("assignment payload leaked across decode calls: %+v", m.Assignment)
	}
	if m.Event.Kind != "expired" || m.Event.TaskID != "t2" {
		t.Errorf("event payload wrong after reuse: %+v", m.Event)
	}

	m, err = scr.decode([]byte(`{"type":"complete","seq":42,"answer":5}`))
	if err == nil {
		t.Fatal("wrongly-typed answer field decoded without error")
	}
	if m.Seq != 42 {
		t.Errorf("partial fill lost Seq: got %d, want 42 (error replies echo it)", m.Seq)
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
