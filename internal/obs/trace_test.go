package obs

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"react/internal/clock"
	"react/internal/event"
	"react/internal/taskq"
)

// TestTraceCSVBytes feeds the ring one scripted story — a task rescued by
// Eq. 2 that still finishes late, another that dies in the queue — and pins
// /trace.csv to the literal internal/trace's recorder produced for it:
// five kind words, no header, forget and batch events skipped.
func TestTraceCSVBytes(t *testing.T) {
	at := func(d time.Duration) time.Time { return clock.Epoch.Add(d) }
	late := taskq.Record{Status: taskq.Completed, FinishedAt: at(150 * time.Second),
		Task: taskq.Task{ID: "t1", Deadline: at(time.Minute)}}
	ring := NewTraceRing(16)
	for _, ev := range []event.Event{
		{Kind: event.KindSubmit, Task: "t1", At: at(0)},
		{Kind: event.KindSubmit, Task: "t2", At: at(time.Second)},
		{Kind: event.KindAssign, Task: "t1", Worker: "w1", At: at(2 * time.Second)},
		{Kind: event.KindBatch, At: at(2 * time.Second), Batch: &event.BatchStats{}},
		{Kind: event.KindRevoke, Task: "t1", Worker: "w1", At: at(40 * time.Second), Cause: taskq.CauseEq2},
		{Kind: event.KindAssign, Task: "t1", Worker: "w2", At: at(41*time.Second + 500*time.Microsecond)},
		{Kind: event.KindExpire, Task: "t2", At: at(90 * time.Second), Cause: taskq.CauseDeadline},
		{Kind: event.KindComplete, Task: "t1", Worker: "w2", At: at(150 * time.Second), Record: late},
		{Kind: event.KindForget, Task: "t2", At: at(4000 * time.Second)},
	} {
		ring.HandleEvent(ev)
	}
	const want = `t1,submitted,1369008000000,
t2,submitted,1369008001000,
t1,assigned,1369008002000,w1
t1,revoked,1369008040000,w1
t1,assigned,1369008041000,w2
t2,expired,1369008090000,
t1,completed,1369008150000,w2
`
	srv := NewServer(Options{Clock: clock.NewVirtual(clock.Epoch), Trace: ring})
	code, body := get(t, srv.Handler(), "/trace.csv")
	if code != http.StatusOK || body != want {
		t.Fatalf("/trace.csv: status %d, body\n%s\nwant\n%s", code, body, want)
	}
}

// TestTraceRingEvictsOldest: once full the ring overwrites its oldest row,
// and the CSV still reads oldest first across the wrap point.
func TestTraceRingEvictsOldest(t *testing.T) {
	for _, c := range []struct {
		limit, events int
		want          []string
	}{
		{3, 2, []string{"t0", "t1"}},               // not yet full
		{3, 3, []string{"t0", "t1", "t2"}},         // exactly full
		{3, 5, []string{"t2", "t3", "t4"}},         // wrapped mid-ring
		{3, 6, []string{"t3", "t4", "t5"}},         // wrapped to the start again
		{0, 2, []string{"t1"}},                     // limit clamped to one row
		{4, 11, []string{"t7", "t8", "t9", "t10"}}, // several laps
	} {
		ring := NewTraceRing(c.limit)
		for i := 0; i < c.events; i++ {
			ring.HandleEvent(event.Event{Kind: event.KindSubmit, Task: fmt.Sprintf("t%d", i), At: clock.Epoch})
		}
		var b strings.Builder
		if err := ring.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
			got = append(got, line[:strings.IndexByte(line, ',')])
		}
		if strings.Join(got, " ") != strings.Join(c.want, " ") {
			t.Errorf("limit %d after %d events: rows %v, want %v", c.limit, c.events, got, c.want)
		}
	}
}

func TestTraceWithoutRing(t *testing.T) {
	srv := NewServer(Options{Clock: clock.NewVirtual(clock.Epoch)})
	if code, _ := get(t, srv.Handler(), "/trace.csv"); code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", code)
	}
}

// TestTraceRingConcurrent: taps on several regions' spines share one ring
// while /trace.csv reads it (run under -race).
func TestTraceRingConcurrent(t *testing.T) {
	ring := NewTraceRing(100)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ring.HandleEvent(event.Event{Kind: event.KindAssign, Task: "t", Worker: "w", At: clock.Epoch})
				if i%50 == 0 {
					ring.WriteCSV(io.Discard)
				}
			}
		}()
	}
	wg.Wait()
	var b strings.Builder
	if err := ring.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if rows := strings.Count(b.String(), "\n"); rows != 100 {
		t.Fatalf("ring holds %d rows after 1600 events, want its limit of 100", rows)
	}
}
