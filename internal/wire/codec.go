package wire

import (
	"encoding/json"
	"math"
	"strconv"
	"sync"

	"react/internal/canon"
)

// This file is the pooled wire codec: hand-written append-style JSON
// framing for Message plus reusable decode scratch, so the steady-state
// encode of the hot frames (assignment, result, event, submit, ok/error)
// allocates nothing. encoding/json built a fresh buffer and reflected over
// the struct for every frame, which made the transport — not the engine —
// the allocation hot path. The cold payloads (stats, regions, a task's
// status) are written by encoding/json (appendCold).
//
// The encoding mirrors the Message struct tags exactly (field order,
// omitempty semantics, string escaping sufficient for the
// newline-delimited protocol), and codec_test.go holds encoding/json
// round-trip equivalence over a corpus plus a fuzzer
// (FuzzFrameDecode) so the two can never drift apart silently. The decoder
// (decodeScratch, below) reads that same canonical form with a strict cursor
// and leaves every other frame to encoding/json.

// frameBuf is a pooled encode buffer holding one framed message (trailing
// newline included). Release returns it to the pool; the bytes must not be
// referenced afterwards.
type frameBuf struct{ b []byte }

// maxPooledFrame keeps pathological frames (a huge regions list, a
// kilobyte description) from pinning their capacity in the pool forever.
const maxPooledFrame = 64 << 10

// Both read loops scan frames with a buffer that starts at readBufStart
// and doubles whenever a frame does not fit, up to maxFrameBytes; a longer
// line fails the connection. Frames are 60–300 bytes (a task costs 8–11 of
// them, 500–900 bytes in all), so 512 bytes hold any one of them: an idle
// connection holds 512 bytes per side, and one that carries a kilobyte
// description grows its own buffer once.
const (
	readBufStart  = 512
	maxFrameBytes = 1 << 20
)

var framePool = sync.Pool{New: func() any { return &frameBuf{b: make([]byte, 0, 512)} }}

// encodeFrame frames m into a pooled buffer: one JSON object, one
// trailing newline, ready for a single write.
func encodeFrame(m *Message) *frameBuf {
	fb := framePool.Get().(*frameBuf)
	fb.b = AppendFrame(fb.b[:0], m)
	return fb
}

func (fb *frameBuf) release() {
	if cap(fb.b) > maxPooledFrame {
		return
	}
	framePool.Put(fb)
}

// AppendFrame appends m's newline-terminated wire form to dst. The field
// order and omitempty behaviour mirror the Message struct tags, so frames
// are interchangeable with what encoding/json produced. Exported so the
// benchmark suite can measure the encoder with a caller-owned buffer; the
// steady state allocates nothing (TestEncodeHotFramesZeroAllocs).
func AppendFrame(dst []byte, m *Message) []byte {
	dst = append(dst, `{"type":`...)
	dst = appendJSONString(dst, m.Type)
	if m.Seq != 0 {
		dst = append(dst, `,"seq":`...)
		dst = strconv.AppendUint(dst, m.Seq, 10)
	}
	if m.Worker != "" {
		dst = append(dst, `,"worker":`...)
		dst = appendJSONString(dst, m.Worker)
	}
	if m.Lat != 0 {
		dst = append(dst, `,"lat":`...)
		dst = appendJSONFloat(dst, m.Lat)
	}
	if m.Lon != 0 {
		dst = append(dst, `,"lon":`...)
		dst = appendJSONFloat(dst, m.Lon)
	}
	if m.Available != nil {
		dst = append(dst, `,"available":`...)
		dst = strconv.AppendBool(dst, *m.Available)
	}
	if m.Task != nil {
		dst = append(dst, `,"task":`...)
		dst = appendTask(dst, m.Task)
	}
	if m.TaskID != "" {
		dst = append(dst, `,"task_id":`...)
		dst = appendJSONString(dst, m.TaskID)
	}
	if m.Answer != "" {
		dst = append(dst, `,"answer":`...)
		dst = appendJSONString(dst, m.Answer)
	}
	if m.Positive != nil {
		dst = append(dst, `,"positive":`...)
		dst = strconv.AppendBool(dst, *m.Positive)
	}
	if m.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = appendJSONString(dst, m.Error)
	}
	if m.Code != "" {
		dst = append(dst, `,"code":`...)
		dst = appendJSONString(dst, m.Code)
	}
	if m.Assignment != nil {
		dst = append(dst, `,"assignment":`...)
		dst = appendAssignment(dst, m.Assignment)
	}
	if m.Result != nil {
		dst = append(dst, `,"result":`...)
		dst = appendResult(dst, m.Result)
	}
	if m.Stats != nil {
		dst = append(dst, `,"stats":`...)
		dst = appendCold(dst, m.Stats)
	}
	if len(m.Regions) > 0 {
		dst = append(dst, `,"regions":`...)
		dst = appendCold(dst, m.Regions)
	}
	if m.Status != nil {
		dst = append(dst, `,"status":`...)
		dst = appendCold(dst, m.Status)
	}
	if m.Event != nil {
		dst = append(dst, `,"event":`...)
		dst = appendEvent(dst, m.Event)
	}
	if m.Admission != nil {
		dst = append(dst, `,"admission":`...)
		dst = appendAdmission(dst, m.Admission)
	}
	return append(dst, '}', '\n')
}

func appendAdmission(dst []byte, p *AdmissionPayload) []byte {
	dst = append(dst, `{"status":`...)
	dst = appendJSONString(dst, p.Status)
	if p.Probability != 0 {
		dst = append(dst, `,"probability":`...)
		dst = appendJSONFloat(dst, p.Probability)
	}
	if p.Floor != 0 {
		dst = append(dst, `,"floor":`...)
		dst = appendJSONFloat(dst, p.Floor)
	}
	if p.RetryAfterMS != 0 {
		dst = append(dst, `,"retry_after_ms":`...)
		dst = strconv.AppendInt(dst, p.RetryAfterMS, 10)
	}
	return append(dst, '}')
}

func appendTask(dst []byte, p *TaskPayload) []byte {
	dst = append(dst, `{"id":`...)
	dst = appendJSONString(dst, p.ID)
	dst = append(dst, `,"lat":`...)
	dst = appendJSONFloat(dst, p.Lat)
	dst = append(dst, `,"lon":`...)
	dst = appendJSONFloat(dst, p.Lon)
	dst = append(dst, `,"deadline_ms":`...)
	dst = strconv.AppendInt(dst, p.DeadlineMS, 10)
	dst = append(dst, `,"reward":`...)
	dst = appendJSONFloat(dst, p.Reward)
	dst = append(dst, `,"category":`...)
	dst = appendJSONString(dst, p.Category)
	dst = append(dst, `,"description":`...)
	dst = appendJSONString(dst, p.Description)
	return append(dst, '}')
}

func appendAssignment(dst []byte, p *AssignmentPayload) []byte {
	dst = append(dst, `{"task_id":`...)
	dst = appendJSONString(dst, p.TaskID)
	dst = append(dst, `,"worker_id":`...)
	dst = appendJSONString(dst, p.WorkerID)
	dst = append(dst, `,"category":`...)
	dst = appendJSONString(dst, p.Category)
	dst = append(dst, `,"description":`...)
	dst = appendJSONString(dst, p.Description)
	dst = append(dst, `,"lat":`...)
	dst = appendJSONFloat(dst, p.Lat)
	dst = append(dst, `,"lon":`...)
	dst = appendJSONFloat(dst, p.Lon)
	dst = append(dst, `,"deadline_ms":`...)
	dst = strconv.AppendInt(dst, p.DeadlineMS, 10)
	dst = append(dst, `,"reward":`...)
	dst = appendJSONFloat(dst, p.Reward)
	return append(dst, '}')
}

func appendResult(dst []byte, p *ResultPayload) []byte {
	dst = append(dst, `{"task_id":`...)
	dst = appendJSONString(dst, p.TaskID)
	if p.WorkerID != "" {
		dst = append(dst, `,"worker_id":`...)
		dst = appendJSONString(dst, p.WorkerID)
	}
	if p.Answer != "" {
		dst = append(dst, `,"answer":`...)
		dst = appendJSONString(dst, p.Answer)
	}
	dst = append(dst, `,"met_deadline":`...)
	dst = strconv.AppendBool(dst, p.MetDeadline)
	dst = append(dst, `,"expired":`...)
	dst = strconv.AppendBool(dst, p.Expired)
	return append(dst, '}')
}

// appendCold appends a cold payload — stats, regions or a task's status —
// as encoding/json writes it. These replies are not on a task's path (a
// requester asks for stats once per run, for a status only after a
// reconnect), and the decoder hands them to encoding/json too. None holds a
// float or a map, so Marshal cannot fail.
func appendCold(dst []byte, v any) []byte {
	b, _ := json.Marshal(v)
	return append(dst, b...)
}

func appendEvent(dst []byte, p *EventPayload) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, p.Seq, 10)
	dst = append(dst, `,"kind":`...)
	dst = appendJSONString(dst, p.Kind)
	dst = append(dst, `,"task_id":`...)
	dst = appendJSONString(dst, p.TaskID)
	if p.Worker != "" {
		dst = append(dst, `,"worker":`...)
		dst = appendJSONString(dst, p.Worker)
	}
	dst = append(dst, `,"at_unix_ms":`...)
	dst = strconv.AppendInt(dst, p.AtUnixMS, 10)
	if p.Cause != "" {
		dst = append(dst, `,"cause":`...)
		dst = appendJSONString(dst, p.Cause)
	}
	if p.Probability != 0 {
		dst = append(dst, `,"probability":`...)
		dst = appendJSONFloat(dst, p.Probability)
	}
	if p.Status != "" {
		dst = append(dst, `,"status":`...)
		dst = appendJSONString(dst, p.Status)
	}
	if p.MetDeadline {
		dst = append(dst, `,"met_deadline":true`...)
	}
	if p.Attempts != 0 {
		dst = append(dst, `,"attempts":`...)
		dst = strconv.AppendInt(dst, int64(p.Attempts), 10)
	}
	return append(dst, '}')
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a quoted JSON string. Quotes, backslashes,
// and control characters are escaped — newline escaping is what keeps one
// frame on one line, which the whole protocol depends on. Other bytes pass
// through verbatim: valid UTF-8 survives exactly, and the decoder treats
// invalid bytes the same way it treated encoding/json's output.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '"' && c != '\\' && c >= 0x20 {
			continue
		}
		dst = append(dst, s[start:i]...)
		switch c {
		case '"':
			dst = append(dst, '\\', '"')
		case '\\':
			dst = append(dst, '\\', '\\')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		}
		start = i + 1
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendJSONFloat appends f in a round-trip-exact form. JSON has no
// representation for non-finite values (encoding/json fails the whole
// marshal); a coordinate or reward can never legitimately be one, so they
// degrade to 0 rather than producing an unparseable frame.
func appendJSONFloat(dst []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(dst, '0')
	}
	return strconv.AppendFloat(dst, f, 'g', -1, 64)
}

// decodeScratch is one connection's reusable decode state: the Message, the
// hot push/submit payloads and the two optional booleans live here and are
// re-filled frame after frame, so steady-state decode of a canonical-form
// frame allocates the frame's strings and nothing else. A payload pointer in
// the returned Message is non-nil exactly when the frame carried that key.
//
// Not safe for concurrent use; each read loop owns one. The returned
// *Message, its scratch-backed payloads and Available/Positive are valid only
// until the next decode call — anything that outlives the loop iteration (a
// response handed to a waiting caller) must be copied with the
// scratch-backed pointers cleared (see Client.readLoop).
type decodeScratch struct {
	msg       Message
	task      TaskPayload
	assign    AssignmentPayload
	result    ResultPayload
	event     EventPayload
	available bool
	positive  bool
}

func (d *decodeScratch) reset() { d.msg = Message{} }

// decode parses one frame into the scratch message. A frame in canonical
// form — what AppendFrame writes for Message and the hot payloads — is read
// by decodeFast; anything else (stats/regions/status replies, hand-typed
// frames, escaped or non-ASCII text, malformed input) is read by
// encoding/json into a cleared message (its payloads freshly allocated: that
// path is cold), so what is accepted, the error text and the partial fill are
// encoding/json's: on error the partially filled message
// is still returned, and the server's error reply echoes whatever Seq the
// frame managed to carry.
func (d *decodeScratch) decode(data []byte) (*Message, error) {
	d.reset()
	if d.decodeFast(data) {
		return &d.msg, nil
	}
	d.reset()
	err := json.Unmarshal(data, &d.msg)
	return &d.msg, err
}

// decodeFast fills the scratch from a canonical-form frame: the keys
// AppendFrame writes, in its order, each at most once, with no whitespace, no
// null and no string escapes (see canon.Dec for the token rules). It reports
// false — the scratch then holds garbage — on anything else. The mirror of
// AppendFrame, field for field; TestDecodeFastMatchesJSON fails if the two
// drift apart.
func (d *decodeScratch) decodeFast(data []byte) bool {
	c := canon.New(data)
	m := &d.msg
	c.Expect(`{"type":`)
	m.Type = internVerb(c.Raw())
	if c.Has(`,"seq":`) {
		m.Seq = c.Uint(math.MaxUint64)
	}
	if c.Has(`,"worker":`) {
		m.Worker = c.Str()
	}
	if c.Has(`,"lat":`) {
		m.Lat = c.Float()
	}
	if c.Has(`,"lon":`) {
		m.Lon = c.Float()
	}
	if c.Has(`,"available":`) {
		d.available = c.Bool()
		m.Available = &d.available
	}
	if c.Has(`,"task":`) {
		d.task = TaskPayload{}
		p := &d.task
		m.Task = p
		c.Expect(`{"id":`)
		p.ID = c.Str()
		c.Expect(`,"lat":`)
		p.Lat = c.Float()
		c.Expect(`,"lon":`)
		p.Lon = c.Float()
		c.Expect(`,"deadline_ms":`)
		p.DeadlineMS = int64(c.Int())
		c.Expect(`,"reward":`)
		p.Reward = c.Float()
		c.Expect(`,"category":`)
		p.Category = c.Str()
		c.Expect(`,"description":`)
		p.Description = c.Str()
		c.Expect(`}`)
	}
	if c.Has(`,"task_id":`) {
		m.TaskID = c.Str()
	}
	if c.Has(`,"answer":`) {
		m.Answer = c.Str()
	}
	if c.Has(`,"positive":`) {
		d.positive = c.Bool()
		m.Positive = &d.positive
	}
	if c.Has(`,"error":`) {
		m.Error = c.Str()
	}
	if c.Has(`,"code":`) {
		m.Code = c.Str()
	}
	if c.Has(`,"assignment":`) {
		d.assign = AssignmentPayload{}
		p := &d.assign
		m.Assignment = p
		c.Expect(`{"task_id":`)
		p.TaskID = c.Str()
		c.Expect(`,"worker_id":`)
		p.WorkerID = c.Str()
		c.Expect(`,"category":`)
		p.Category = c.Str()
		c.Expect(`,"description":`)
		p.Description = c.Str()
		c.Expect(`,"lat":`)
		p.Lat = c.Float()
		c.Expect(`,"lon":`)
		p.Lon = c.Float()
		c.Expect(`,"deadline_ms":`)
		p.DeadlineMS = int64(c.Int())
		c.Expect(`,"reward":`)
		p.Reward = c.Float()
		c.Expect(`}`)
	}
	if c.Has(`,"result":`) {
		d.result = ResultPayload{}
		p := &d.result
		m.Result = p
		c.Expect(`{"task_id":`)
		p.TaskID = c.Str()
		if c.Has(`,"worker_id":`) {
			p.WorkerID = c.Str()
		}
		if c.Has(`,"answer":`) {
			p.Answer = c.Str()
		}
		c.Expect(`,"met_deadline":`)
		p.MetDeadline = c.Bool()
		c.Expect(`,"expired":`)
		p.Expired = c.Bool()
		c.Expect(`}`)
	}
	// stats, regions and status replies are not hot: their keys fail the next
	// Expect and the frame goes to encoding/json.
	if c.Has(`,"event":`) {
		d.event = EventPayload{}
		p := &d.event
		m.Event = p
		c.Expect(`{"seq":`)
		p.Seq = c.Uint(math.MaxUint64)
		c.Expect(`,"kind":`)
		p.Kind = c.Str()
		c.Expect(`,"task_id":`)
		p.TaskID = c.Str()
		if c.Has(`,"worker":`) {
			p.Worker = c.Str()
		}
		c.Expect(`,"at_unix_ms":`)
		p.AtUnixMS = int64(c.Int())
		if c.Has(`,"cause":`) {
			p.Cause = c.Str()
		}
		if c.Has(`,"probability":`) {
			p.Probability = c.Float()
		}
		if c.Has(`,"status":`) {
			p.Status = c.Str()
		}
		if c.Has(`,"met_deadline":`) {
			p.MetDeadline = c.Bool()
		}
		if c.Has(`,"attempts":`) {
			p.Attempts = c.Int()
		}
		c.Expect(`}`)
	}
	if c.Has(`,"admission":`) {
		// Freshly allocated: the verdict escapes to the caller of Submit.
		p := new(AdmissionPayload)
		m.Admission = p
		c.Expect(`{"status":`)
		p.Status = c.Str()
		if c.Has(`,"probability":`) {
			p.Probability = c.Float()
		}
		if c.Has(`,"floor":`) {
			p.Floor = c.Float()
		}
		if c.Has(`,"retry_after_ms":`) {
			p.RetryAfterMS = int64(c.Int())
		}
		c.Expect(`}`)
	}
	c.Expect(`}`)
	return c.Done()
}

// verbs interns Message.Type: every frame carries one of these, so the fast
// path does not allocate a string for it.
var verbs = func() map[string]string {
	m := make(map[string]string)
	for _, v := range []string{
		"register", "deregister", "location", "available", "submit", "complete",
		"feedback", "watch", "watch-events", "task", "regions", "ping", "stats",
		"ok", "error", "assignment", "result", "event",
	} {
		m[v] = v
	}
	return m
}()

func internVerb(b []byte) string {
	if v, ok := verbs[string(b)]; ok { // the conversion in a map index does not allocate
		return v
	}
	return string(b)
}
