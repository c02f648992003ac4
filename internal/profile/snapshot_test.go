package profile

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"react/internal/region"
)

func TestSnapshotRoundTrip(t *testing.T) {
	src := NewRegistry()
	alice, _ := src.Register("alice", athens)
	alice.RecordCompletion("traffic", 5, true)
	alice.RecordCompletion("traffic", 8, false)
	alice.RecordCompletion("photo", 12, true)
	bob, _ := src.Register("bob", region.Point{Lat: 40.64, Lon: 22.94})
	_ = bob // fresh worker, no history

	var buf bytes.Buffer
	if err := src.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	dst := NewRegistry()
	n, err := dst.ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || dst.Size() != 2 {
		t.Fatalf("restored %d workers, size %d", n, dst.Size())
	}

	a, ok := dst.Get("alice")
	if !ok {
		t.Fatal("alice missing")
	}
	// Accuracy preserved per category.
	if acc, ok := a.Accuracy("traffic"); !ok || acc != 0.5 {
		t.Fatalf("traffic accuracy = %v, %v", acc, ok)
	}
	if acc, ok := a.Accuracy("photo"); !ok || acc != 1 {
		t.Fatalf("photo accuracy = %v, %v", acc, ok)
	}
	if a.Finished() != 3 {
		t.Fatalf("Finished = %d", a.Finished())
	}
	// Execution model preserved exactly.
	srcModel, _ := alice.Model(3)
	dstModel, ok := a.Model(3)
	if !ok || math.Abs(srcModel.Alpha-dstModel.Alpha) > 1e-12 || srcModel.Kmin != dstModel.Kmin {
		t.Fatalf("model drifted: %+v vs %+v", srcModel, dstModel)
	}
	// Location preserved.
	if a.Location() != athens {
		t.Fatalf("location = %v", a.Location())
	}
	// Restored workers start offline.
	if a.Available() {
		t.Fatal("restored worker marked available")
	}
	// Fresh bob restored with no history.
	b, _ := dst.Get("bob")
	if b.Finished() != 0 {
		t.Fatalf("bob Finished = %d", b.Finished())
	}
	if _, ok := b.Model(1); ok {
		t.Fatal("bob has a model from nowhere")
	}
}

func TestSnapshotEmptyRegistry(t *testing.T) {
	var buf bytes.Buffer
	if err := NewRegistry().WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("empty registry produced %d bytes", buf.Len())
	}
	n, err := NewRegistry().ReadSnapshot(&buf)
	if err != nil || n != 0 {
		t.Fatalf("restore empty: %d, %v", n, err)
	}
}

func TestReadSnapshotRejectsMalformed(t *testing.T) {
	cases := []string{
		`{"id":""}`,                            // missing id
		`{"id":"w","lat":200}`,                 // bad location
		`{"id":"w","fit_n":-1}`,                // negative samples
		`{"id":"w","fit_n":3,"fit_min":0}`,     // samples but no min
		`{"id":"w","categories":{"x":[5,2]}}`,  // positive > finished
		`this is not json`,                     // garbage
		`{"id":"w","fit_n":1,"fit_min":1e999}`, // non-finite after parse (inf)
	}
	for _, line := range cases {
		r := NewRegistry()
		if _, err := r.ReadSnapshot(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("accepted malformed snapshot %q", line)
		}
	}
}

func TestReadSnapshotDuplicateWorker(t *testing.T) {
	r := NewRegistry()
	r.Register("w", athens)
	line := `{"id":"w","lat":1,"lon":1}`
	if _, err := r.ReadSnapshot(strings.NewReader(line + "\n")); err == nil {
		t.Fatal("duplicate restore accepted")
	}
}

func TestReadSnapshotPartialProgress(t *testing.T) {
	// Line b was written when profiles still kept a reward range: the
	// decoder ignores the keys, so such a snapshot still loads.
	input := `{"id":"a","lat":1,"lon":1}
{"id":"b","lat":2,"lon":2,"reward_min":0.05,"reward_max":0.5}
garbage
`
	r := NewRegistry()
	n, err := r.ReadSnapshot(strings.NewReader(input))
	if err == nil {
		t.Fatal("garbage tail accepted")
	}
	if n != 2 || r.Size() != 2 {
		t.Fatalf("restored %d before failure, size %d", n, r.Size())
	}
}

func TestSnapshotSortedAndStable(t *testing.T) {
	r := NewRegistry()
	for _, id := range []string{"zed", "amy", "mid"} {
		r.Register(id, athens)
	}
	var b1, b2 bytes.Buffer
	r.WriteSnapshot(&b1)
	r.WriteSnapshot(&b2)
	if b1.String() != b2.String() {
		t.Fatal("snapshot not deterministic")
	}
	lines := strings.Split(strings.TrimSpace(b1.String()), "\n")
	if len(lines) != 3 || !strings.Contains(lines[0], `"amy"`) || !strings.Contains(lines[2], `"zed"`) {
		t.Fatalf("snapshot order wrong:\n%s", b1.String())
	}
}
