package journal

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"time"

	"react/internal/canon"
	"react/internal/event"
	"react/internal/taskq"
)

// This file is the journal's record codec: a hand-written encoder and decoder
// for the two shapes the journal writes — the WAL Record and the snapshot's
// taskq.Record line — in place of encoding/json's reflection, which was every
// cycle the journal spent. It is not a second format. The contract is
// byte identity with encoding/json, and it holds by construction:
//
//   - The encoder writes the canonical form: the struct's fields in
//     declaration order under their json names, omitempty as tagged, no
//     whitespace, floats and times as encoding/json prints them. Anything it
//     cannot print identically without encoding/json's escaping rules — a
//     string with a byte outside plain ASCII or one of `"\<>&`, a non-finite
//     float, a time RFC 3339 cannot carry — makes it decline, and the whole
//     value goes through json.Marshal.
//   - The decoder accepts exactly that canonical form and declines everything
//     else (other key order, whitespace, escapes, unknown keys, a number it
//     would have to round differently), and the payload goes through
//     json.Unmarshal. Logs written by older binaries are canonical already;
//     hand-edited ones are merely slower. The cursor is internal/canon's,
//     shared with the wire frame decoder.
//
// codec_test.go holds the golden files (written by encoding/json before this
// codec existed) and FuzzRecordCodec, the differential oracle.

// appendRecord appends rec's JSON payload to dst: the bytes json.Marshal(rec)
// returns.
func appendRecord(dst []byte, rec *Record) ([]byte, error) {
	if out, ok := appendRecordFast(dst, rec); ok {
		return out, nil
	}
	// encoding/json gets a copy that shares no memory with rec — strings
	// cloned, task state copied — so that the existence of this fallback
	// does not make every caller's record escape to the heap: FromEvent's
	// task state stays on the sink's stack.
	cp := Record{
		Seq: rec.Seq, Kind: rec.Kind,
		Cause: strings.Clone(rec.Cause), TaskID: strings.Clone(rec.TaskID),
		Worker: strings.Clone(rec.Worker), Category: strings.Clone(rec.Category),
		Positive: rec.Positive, Lat: rec.Lat, Lon: rec.Lon,
	}
	if rec.Task != nil {
		task := *rec.Task
		task.Worker = strings.Clone(task.Worker)
		task.Task.ID = strings.Clone(task.Task.ID)
		task.Task.Category = strings.Clone(task.Task.Category)
		task.Task.Description = strings.Clone(task.Task.Description)
		cp.Task = &task
	}
	payload, err := json.Marshal(cp)
	if err != nil {
		return dst, err
	}
	return append(dst, payload...), nil
}

// appendTaskRecord appends the bytes json.Marshal(r) returns.
func appendTaskRecord(dst []byte, r *taskq.Record) ([]byte, error) {
	if out, ok := appendTaskRecordFast(dst, r); ok {
		return out, nil
	}
	payload, err := json.Marshal(*r)
	if err != nil {
		return dst, err
	}
	return append(dst, payload...), nil
}

func appendRecordFast(dst []byte, r *Record) ([]byte, bool) {
	if !plain(r.Cause) || !plain(r.TaskID) || !plain(r.Worker) || !plain(r.Category) ||
		!finite(r.Lat) || !finite(r.Lon) {
		return dst, false
	}
	mark := len(dst)
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, r.Seq, 10)
	dst = append(dst, `,"kind":`...)
	dst = strconv.AppendUint(dst, uint64(r.Kind), 10)
	if r.Task != nil {
		dst = append(dst, `,"task":`...)
		var ok bool
		if dst, ok = appendTaskRecordFast(dst, r.Task); !ok {
			return dst[:mark], false
		}
	}
	dst = appendOptString(dst, `,"cause":"`, r.Cause)
	dst = appendOptString(dst, `,"task_id":"`, r.TaskID)
	dst = appendOptString(dst, `,"worker":"`, r.Worker)
	dst = appendOptString(dst, `,"category":"`, r.Category)
	if r.Positive {
		dst = append(dst, `,"positive":true`...)
	}
	if r.Lat != 0 {
		dst = append(dst, `,"lat":`...)
		dst = appendFloat(dst, r.Lat)
	}
	if r.Lon != 0 {
		dst = append(dst, `,"lon":`...)
		dst = appendFloat(dst, r.Lon)
	}
	return append(dst, '}'), true
}

// appendOptString appends an omitempty string field; key ends in the value's
// opening quote.
func appendOptString(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	dst = append(dst, key...)
	dst = append(dst, s...)
	return append(dst, '"')
}

func appendTaskRecordFast(dst []byte, r *taskq.Record) ([]byte, bool) {
	t := &r.Task
	if !plain(t.ID) || !plain(t.Category) || !plain(t.Description) || !plain(r.Worker) ||
		!finite(t.Location.Lat) || !finite(t.Location.Lon) || !finite(t.Reward) {
		return dst, false
	}
	mark := len(dst)
	ok := true
	dst = append(dst, `{"Task":{"ID":"`...)
	dst = append(dst, t.ID...)
	dst = append(dst, `","Location":{"Lat":`...)
	dst = appendFloat(dst, t.Location.Lat)
	dst = append(dst, `,"Lon":`...)
	dst = appendFloat(dst, t.Location.Lon)
	dst = append(dst, `},"Deadline":`...)
	dst = appendTime(dst, t.Deadline, &ok)
	dst = append(dst, `,"Reward":`...)
	dst = appendFloat(dst, t.Reward)
	dst = append(dst, `,"Category":"`...)
	dst = append(dst, t.Category...)
	dst = append(dst, `","Description":"`...)
	dst = append(dst, t.Description...)
	dst = append(dst, `","Submitted":`...)
	dst = appendTime(dst, t.Submitted, &ok)
	dst = append(dst, `},"Status":`...)
	dst = strconv.AppendInt(dst, int64(r.Status), 10)
	dst = append(dst, `,"Worker":"`...)
	dst = append(dst, r.Worker...)
	dst = append(dst, `","AssignedAt":`...)
	dst = appendTime(dst, r.AssignedAt, &ok)
	dst = append(dst, `,"FinishedAt":`...)
	dst = appendTime(dst, r.FinishedAt, &ok)
	dst = append(dst, `,"Attempts":`...)
	dst = strconv.AppendInt(dst, int64(r.Attempts), 10)
	dst = append(dst, `,"Graded":`...)
	dst = strconv.AppendBool(dst, r.Graded)
	if !ok {
		return dst[:mark], false
	}
	return append(dst, '}'), true
}

// plainByte marks the bytes encoding/json copies into a string unchanged and
// one at a time: printable ASCII less the JSON and HTML escapes.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// plain reports whether s encodes as itself between quotes.
func plain(s string) bool {
	for i := 0; i < len(s); i++ {
		if !plainByte[s[i]] {
			return false
		}
	}
	return true
}

func finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// appendFloat prints a finite f as encoding/json's float64 encoder does: the
// shortest round-trip digits, exponent form outside [1e-6, 1e21), and no
// leading zero in a negative exponent.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

const zeroTime = `"0001-01-01T00:00:00Z"`

// appendTime prints t as Time.MarshalJSON does, and clears *ok for the times
// MarshalJSON refuses (a year outside [0,9999], a zone hour outside [0,23]).
func appendTime(dst []byte, t time.Time, ok *bool) []byte {
	if t == (time.Time{}) {
		return append(dst, zeroTime...)
	}
	dst = append(dst, '"')
	mark := len(dst)
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	if dst[mark+len("9999")] != '-' {
		*ok = false
	} else if n := len(dst); dst[n-1] != 'Z' {
		sign, hour := dst[n-len("Z07:00")], 10*(dst[n-5]-'0')+(dst[n-4]-'0')
		if (sign != '+' && sign != '-') || hour >= 24 {
			*ok = false
		}
	}
	return append(dst, '"')
}

// decodeRecord parses one WAL payload into *rec, as json.Unmarshal into a
// zero Record would, except that a canonical-form payload's task state lands
// in *task — the caller's to reuse frame after frame — and rec.Task points
// there.
func decodeRecord(payload []byte, rec *Record, task *taskq.Record) error {
	*rec, *task = Record{}, taskq.Record{}
	if decodeRecordFast(payload, rec, task) {
		return nil
	}
	*rec = Record{}
	return json.Unmarshal(payload, rec)
}

// decodeTaskRecord parses one snapshot task line into *rec, as
// json.Unmarshal into a zero taskq.Record would.
func decodeTaskRecord(line []byte, rec *taskq.Record) error {
	*rec = taskq.Record{}
	d := canon.New(line)
	decTaskRecord(&d, rec)
	if d.Done() {
		return nil
	}
	*rec = taskq.Record{}
	return json.Unmarshal(line, rec)
}

func decodeRecordFast(payload []byte, r *Record, task *taskq.Record) bool {
	d := canon.New(payload)
	d.Expect(`{"seq":`)
	r.Seq = d.Uint(math.MaxUint64)
	d.Expect(`,"kind":`)
	r.Kind = event.Kind(d.Uint(math.MaxUint8))
	if d.Has(`,"task":`) {
		r.Task = task
		decTaskRecord(&d, task)
	}
	if d.Has(`,"cause":`) {
		r.Cause = d.Str()
	}
	if d.Has(`,"task_id":`) {
		r.TaskID = d.Str()
	}
	if d.Has(`,"worker":`) {
		r.Worker = d.Str()
	}
	if d.Has(`,"category":`) {
		r.Category = d.Str()
	}
	if d.Has(`,"positive":`) {
		r.Positive = d.Bool()
	}
	if d.Has(`,"lat":`) {
		r.Lat = d.Float()
	}
	if d.Has(`,"lon":`) {
		r.Lon = d.Float()
	}
	d.Expect(`}`)
	return d.Done()
}

// decTaskRecord reads the snapshot line's shape: taskq.Record in declaration
// order.
func decTaskRecord(d *canon.Dec, r *taskq.Record) {
	t := &r.Task
	d.Expect(`{"Task":{"ID":`)
	t.ID = d.Str()
	d.Expect(`,"Location":{"Lat":`)
	t.Location.Lat = d.Float()
	d.Expect(`,"Lon":`)
	t.Location.Lon = d.Float()
	d.Expect(`},"Deadline":`)
	t.Deadline = decTime(d)
	d.Expect(`,"Reward":`)
	t.Reward = d.Float()
	d.Expect(`,"Category":`)
	t.Category = d.Str()
	d.Expect(`,"Description":`)
	t.Description = d.Str()
	d.Expect(`,"Submitted":`)
	t.Submitted = decTime(d)
	d.Expect(`},"Status":`)
	r.Status = taskq.Status(d.Int())
	d.Expect(`,"Worker":`)
	r.Worker = d.Str()
	d.Expect(`,"AssignedAt":`)
	r.AssignedAt = decTime(d)
	d.Expect(`,"FinishedAt":`)
	r.FinishedAt = decTime(d)
	d.Expect(`,"Attempts":`)
	r.Attempts = d.Int()
	d.Expect(`,"Graded":`)
	r.Graded = d.Bool()
	d.Expect(`}`)
}

// decTime reads a quoted timestamp through Time.UnmarshalText — the strict
// RFC 3339 parser json.Unmarshal itself reaches through UnmarshalJSON, on the
// same bytes less the quotes — so the result is the same Time, location
// pointer included.
func decTime(d *canon.Dec) (t time.Time) {
	if d.Has(zeroTime) {
		return t
	}
	if err := t.UnmarshalText(d.Raw()); err != nil {
		d.Fail()
		return time.Time{}
	}
	return t
}
