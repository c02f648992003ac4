package wire

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// FuzzMessageDecode exercises the protocol decoder with arbitrary bytes:
// whatever arrives, decoding must not panic, and any message that decodes
// must re-encode and materialize payloads without panicking — the server's
// read loop depends on that totality.
func FuzzMessageDecode(f *testing.F) {
	seeds := []string{
		`{"type":"register","worker":"alice","lat":37.98,"lon":23.73}`,
		`{"type":"submit","task":{"id":"t1","deadline_ms":60000,"category":"traffic"}}`,
		`{"type":"complete","task_id":"t1","worker":"alice","answer":"yes"}`,
		`{"type":"feedback","task_id":"t1","positive":true}`,
		`{"type":"assignment","assignment":{"task_id":"t1","worker_id":"alice","deadline_ms":-5}}`,
		`{"type":"result","result":{"task_id":"t1","met_deadline":true}}`,
		`{"type":"stats"}`,
		`{"type":"watch"}`,
		`{}`,
		`{"type":"submit","task":{"id":"","deadline_ms":-9223372036854775808}}`,
		`not json at all`,
		`{"type":`,
		`{"type":"submit","task":{"deadline_ms":1e309}}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Message
		if err := json.Unmarshal(data, &m); err != nil {
			return // rejected input is fine; panics are not
		}
		if _, err := json.Marshal(m); err != nil {
			t.Fatalf("decoded message failed to re-encode: %v", err)
		}
		if m.Task != nil {
			task := m.Task.Task(time.Now())
			_ = task.Deadline // arbitrary DeadlineMS must not panic
		}
	})
}

// FuzzFrameDecode holds the pooled codec to the encoding/json contract on
// arbitrary bytes: whenever encoding/json accepts a frame, the scratch
// decoder must accept it and agree on every field; whatever decodes must
// re-encode through appendFrame as a single line whose meaning is a fixed
// point (encode -> decode -> encode is byte-stable). This is the fuzzer
// the nightly workflow runs against the hand-written encoder. Each input is
// checked twice, raw and with its trailing newline trimmed as bufio.Scanner
// hands a line to the read loops: only the trimmed form can take the
// decoder's fast path, and that is the thing to fuzz.
func FuzzFrameDecode(f *testing.F) {
	for _, m := range codecCorpus() {
		m := m
		f.Add(AppendFrame(nil, &m))
	}
	seeds := []string{
		`{"type":"register","worker":"alice","lat":37.98,"lon":23.73}`,
		`{"type":"submit","task":{"id":"t1","deadline_ms":60000}}`,
		`{"type":"ok","seq":18446744073709551615}`,
		`{"type":"move","lat":5e-324,"lon":-1.7976931348623157e308}`,
		`{"type":"complete","seq":42,"answer":5}`,
		`{"seq":1e20}`,
		`not json`,
		`{}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	check := func(t *testing.T, data []byte) {
		var scr decodeScratch
		m, scratchErr := scr.decode(data)

		var std Message
		stdErr := json.Unmarshal(data, &std)
		if stdErr == nil && scratchErr != nil {
			t.Fatalf("encoding/json accepts %q but scratch decoder rejects it: %v", data, scratchErr)
		}
		if scratchErr != nil {
			return
		}
		if stdErr == nil {
			got, want := *m, std
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("decoders disagree on %q:\nscratch: %+v\n    std: %+v", data, got, want)
			}
		}

		frame := AppendFrame(nil, m)
		if frame[len(frame)-1] != '\n' || bytes.IndexByte(frame[:len(frame)-1], '\n') >= 0 {
			t.Fatalf("re-encoded frame is not exactly one line: %q", frame)
		}
		var scr2 decodeScratch
		m2, err := scr2.decode(frame)
		if err != nil {
			t.Fatalf("appendFrame output %q does not decode: %v", frame, err)
		}
		if frame2 := AppendFrame(nil, m2); !bytes.Equal(frame, frame2) {
			t.Fatalf("encode is not a fixed point:\nfirst:  %q\nsecond: %q", frame, frame2)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check(t, data)
		if line := bytes.TrimSuffix(data, []byte("\n")); len(line) < len(data) {
			check(t, line)
		}
	})
}
