package wire

import (
	"strings"
	"testing"
	"time"
)

// drainTimeline collects events until a terminal one arrives for taskID.
func drainTimeline(t *testing.T, c *Client, taskID string) []EventPayload {
	t.Helper()
	var got []EventPayload
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev, ok := <-c.Events():
			if !ok {
				t.Fatalf("event stream closed after %d events", len(got))
			}
			got = append(got, ev)
			if ev.TaskID == taskID && ev.Terminal() {
				return got
			}
		case <-deadline:
			t.Fatalf("no terminal event for %q; got %+v", taskID, got)
		}
	}
}

func TestWatchEventsStreamsTaskTimeline(t *testing.T) {
	s := startServer(t)

	watcher := dial(t, s)
	if err := watcher.WatchEvents("t1"); err != nil {
		t.Fatal(err)
	}

	worker := dial(t, s)
	if err := worker.Register("alice", 37.98, 23.73); err != nil {
		t.Fatal(err)
	}
	requester := dial(t, s)
	if err := requester.Submit(testTask("t1")); err != nil {
		t.Fatal(err)
	}
	// An off-filter task: none of its events may leak into the stream.
	if err := requester.Submit(testTask("t2")); err != nil {
		t.Fatal(err)
	}

	var a AssignmentPayload
	for a.TaskID != "t1" {
		select {
		case a = <-worker.Assignments():
		case <-time.After(5 * time.Second):
			t.Fatal("assignment never arrived")
		}
	}
	if err := worker.Complete("t1", "alice", "yes"); err != nil {
		t.Fatal(err)
	}

	got := drainTimeline(t, watcher, "t1")
	var kinds []string
	var lastSeq uint64
	for _, ev := range got {
		if ev.TaskID != "t1" {
			t.Fatalf("event for %q leaked through the t1 filter: %+v", ev.TaskID, ev)
		}
		if ev.Seq <= lastSeq {
			t.Fatalf("seq not strictly increasing: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		kinds = append(kinds, ev.Kind)
	}
	timeline := strings.Join(kinds, "→")
	if timeline != "submit→assign→complete" {
		t.Fatalf("timeline = %s, want submit→assign→complete", timeline)
	}
	last := got[len(got)-1]
	if last.Worker != "alice" || !last.MetDeadline || last.Status != "completed" || last.Attempts != 1 {
		t.Fatalf("terminal event = %+v", last)
	}
}

// TestWatchEventsSkipsWorkerFacts pins what the stream does with the
// worker-level spine kinds: a register, a grade and a deregister are
// journaled facts, not steps of a task's timeline, so an unscoped stream
// forwards no frame for them and the task's lifecycle frames are exactly
// what they would be without them.
func TestWatchEventsSkipsWorkerFacts(t *testing.T) {
	s := startServer(t)

	watcher := dial(t, s)
	if err := watcher.WatchEvents(""); err != nil {
		t.Fatal(err)
	}
	worker := dial(t, s)
	if err := worker.Register("alice", 37.98, 23.73); err != nil {
		t.Fatal(err)
	}
	requester := dial(t, s)
	if err := requester.Submit(testTask("t1")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-worker.Assignments():
	case <-time.After(5 * time.Second):
		t.Fatal("assignment never arrived")
	}
	if err := worker.Complete("t1", "alice", "yes"); err != nil {
		t.Fatal(err)
	}
	if err := requester.Feedback("t1", true); err != nil {
		t.Fatal(err)
	}
	if err := worker.Deregister(); err != nil {
		t.Fatal(err)
	}
	// Each call above returned after its event was published, and the
	// stream is FIFO: once the marker's submit arrives, any frame for the
	// worker facts would already have been read.
	if err := requester.Submit(testTask("marker")); err != nil {
		t.Fatal(err)
	}

	var frames []string
	deadline := time.After(5 * time.Second)
	for len(frames) == 0 || frames[len(frames)-1] != "marker:submit" {
		select {
		case ev := <-watcher.Events():
			frames = append(frames, ev.TaskID+":"+ev.Kind)
		case <-deadline:
			t.Fatalf("marker never streamed; got %v", frames)
		}
	}
	if got, want := strings.Join(frames, " "), "t1:submit t1:assign t1:complete marker:submit"; got != want {
		t.Fatalf("stream = %s, want %s", got, want)
	}
}

func TestWatchEventsUnfiltered(t *testing.T) {
	s := startServer(t)

	watcher := dial(t, s)
	if err := watcher.WatchEvents(""); err != nil {
		t.Fatal(err)
	}
	requester := dial(t, s)
	if err := requester.Submit(testTask("a")); err != nil {
		t.Fatal(err)
	}
	if err := requester.Submit(testTask("b")); err != nil {
		t.Fatal(err)
	}

	seen := map[string]bool{}
	deadline := time.After(5 * time.Second)
	for !(seen["a"] && seen["b"]) {
		select {
		case ev := <-watcher.Events():
			if ev.Kind != "submit" {
				t.Fatalf("unexpected kind %q before any worker exists", ev.Kind)
			}
			seen[ev.TaskID] = true
		case <-deadline:
			t.Fatalf("submit events missing; seen %v", seen)
		}
	}
}
