package wire

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"react/internal/engine"
	"react/internal/schedule"
	"react/internal/taskq"
)

func startServer(t *testing.T) *Server {
	t.Helper()
	s, err := Serve("127.0.0.1:0", engine.Config{
		BatchPoll:     5 * time.Millisecond,
		MonitorPeriod: 50 * time.Millisecond,
		Schedule:      schedule.Config{BatchBound: 1, BatchPeriod: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func dial(t *testing.T, s *Server) *Client {
	t.Helper()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func testTask(id string) TaskPayload {
	return TaskPayload{
		ID: id, Lat: 37.98, Lon: 23.73,
		DeadlineMS: 60_000, Reward: 0.05,
		Category: "traffic", Description: "congested?",
	}
}

func TestEndToEndOverTCP(t *testing.T) {
	s := startServer(t)

	worker := dial(t, s)
	if err := worker.Register("alice", 37.98, 23.73); err != nil {
		t.Fatal(err)
	}

	requester := dial(t, s)
	if err := requester.Watch(); err != nil {
		t.Fatal(err)
	}
	if err := requester.Submit(testTask("t1")); err != nil {
		t.Fatal(err)
	}

	// The worker receives the assignment pushed over TCP.
	var a AssignmentPayload
	select {
	case a = <-worker.Assignments():
	case <-time.After(5 * time.Second):
		t.Fatal("assignment never arrived")
	}
	if a.TaskID != "t1" || a.WorkerID != "alice" || a.Category != "traffic" {
		t.Fatalf("assignment = %+v", a)
	}
	if a.DeadlineMS <= 0 || a.DeadlineMS > 60_000 {
		t.Fatalf("relative deadline = %dms", a.DeadlineMS)
	}

	if err := worker.Complete("t1", "alice", "yes, jammed"); err != nil {
		t.Fatal(err)
	}

	// The watching requester sees the result and grades it.
	select {
	case r := <-requester.Results():
		if r.TaskID != "t1" || r.Answer != "yes, jammed" || !r.MetDeadline || r.Expired {
			t.Fatalf("result = %+v", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("result never arrived")
	}
	if err := requester.Feedback("t1", true); err != nil {
		t.Fatal(err)
	}

	st, err := requester.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Received != 1 || st.Completed != 1 || st.OnTime != 1 || st.WorkersOnline != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// A task that expires unassigned reaches a watching requester as an
// expired result, pushed by the region's expiry pump.
func TestExpiryResultPush(t *testing.T) {
	s := startServer(t)
	requester := dial(t, s)
	if err := requester.Watch(); err != nil {
		t.Fatal(err)
	}
	task := testTask("t-expire")
	task.DeadlineMS = 50 // no worker is registered: it must expire
	if err := requester.Submit(task); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-requester.Results():
		if r.TaskID != "t-expire" || !r.Expired || r.MetDeadline || r.WorkerID != "" {
			t.Fatalf("result = %+v", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("expiry result never arrived")
	}
}

func TestServerErrorsSurfaceToClient(t *testing.T) {
	s := startServer(t)
	c := dial(t, s)
	if err := c.Register("", 0, 0); err == nil || !strings.Contains(err.Error(), "missing worker") {
		t.Fatalf("err = %v", err)
	}
	if err := c.Submit(TaskPayload{}); err == nil {
		t.Fatal("empty submit accepted")
	}
	if err := c.Complete("ghost", "nobody", "x"); err == nil {
		t.Fatal("bogus complete accepted")
	}
	if err := c.Feedback("ghost", true); err == nil {
		t.Fatal("bogus feedback accepted")
	}
	// Duplicate registration across connections.
	if err := c.Register("dup", 1, 1); err != nil {
		t.Fatal(err)
	}
	c2 := dial(t, s)
	if err := c2.Register("dup", 1, 1); err == nil {
		t.Fatal("duplicate worker id accepted")
	}
}

func TestWorkerDisconnectReturnsTask(t *testing.T) {
	s := startServer(t)
	w1 := dial(t, s)
	if err := w1.Register("flaky", 37.98, 23.73); err != nil {
		t.Fatal(err)
	}
	req := dial(t, s)
	if err := req.Submit(testTask("t1")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-w1.Assignments():
	case <-time.After(5 * time.Second):
		t.Fatal("assignment never arrived")
	}
	// Worker vanishes; a new worker should inherit the task.
	w1.Close()
	w2 := dial(t, s)
	if err := w2.Register("steady", 37.98, 23.73); err != nil {
		t.Fatal(err)
	}
	select {
	case a := <-w2.Assignments():
		if a.TaskID != "t1" {
			t.Fatalf("inherited %+v", a)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("task not reassigned after disconnect")
	}
}

func TestUnregisteredConnectionErrors(t *testing.T) {
	// Every worker-scoped request on a connection that never registered
	// must be rejected at the guard — before any backend lookup — with an
	// error naming the problem. (The location/available handlers used to
	// probe the backend with an empty worker id first.)
	cases := []struct {
		name string
		call func(c *Client) error
	}{
		{"location", func(c *Client) error { return c.SetLocation(37.98, 23.73) }},
		{"available", func(c *Client) error { return c.SetAvailable(true) }},
		{"deregister", func(c *Client) error { return c.Deregister() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := startServer(t)
			c := dial(t, s)
			err := tc.call(c)
			if err == nil {
				t.Fatalf("%s accepted on unregistered connection", tc.name)
			}
			var se *ServerError
			if !errors.As(err, &se) {
				t.Fatalf("%s error = %v, want server rejection", tc.name, err)
			}
			if !strings.Contains(err.Error(), "no registered worker") {
				t.Fatalf("%s error = %v, want 'no registered worker'", tc.name, err)
			}
			// The rejection must not have wedged the connection.
			if err := c.Ping(); err != nil {
				t.Fatalf("connection dead after rejection: %v", err)
			}
		})
	}
}

func TestSecondRegisterOnConnectionRejected(t *testing.T) {
	// A connection serves one worker: teardown detaches only that one, so
	// a second register — whatever id it names — would leave the first
	// worker available forever once the socket closes.
	for _, second := range []string{"w2", "w1"} {
		t.Run(second, func(t *testing.T) {
			s := startServer(t)
			c := dial(t, s)
			if err := c.Register("w1", 1, 1); err != nil {
				t.Fatal(err)
			}
			err := c.Register(second, 1, 1)
			if err == nil || !strings.Contains(err.Error(), `register: connection already serves worker "w1"`) {
				t.Fatalf("second register: err = %v, want the already-serves refusal", err)
			}
			if st, _ := c.Stats(); st.WorkersOnline != 1 || st.WorkersKnown != 1 {
				t.Fatalf("after the refusal: stats = %+v, want just w1", st)
			}
			c.Close()
			probe := dial(t, s)
			deadline := time.Now().Add(2 * time.Second)
			for {
				st, err := probe.Stats()
				if err != nil {
					t.Fatal(err)
				}
				if st.WorkersOnline == 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("workers online = %d after the connection closed", st.WorkersOnline)
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

func TestGarbageInputTolerated(t *testing.T) {
	s := startServer(t)
	c := dial(t, s)
	// Raw garbage through the underlying connection must produce an error
	// frame, not kill the server.
	if _, err := fmt.Fprintf(c.c, "this is not json\n"); err != nil {
		t.Fatal(err)
	}
	// The error response lands in the response queue; a following valid
	// request still works.
	time.Sleep(50 * time.Millisecond)
	select {
	case m := <-c.resp:
		if m.Type != "error" {
			t.Fatalf("garbage response = %+v", m)
		}
	default:
		t.Fatal("no error frame for garbage input")
	}
	if err := c.Register("after-garbage", 1, 1); err != nil {
		t.Fatal(err)
	}
}

func TestManyWorkersManyTasksOverTCP(t *testing.T) {
	s := startServer(t)
	const nWorkers, nTasks = 6, 60

	var completed atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < nWorkers; i++ {
		id := fmt.Sprintf("w%d", i)
		c := dial(t, s)
		if err := c.Register(id, 37.98, 23.73); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(id string, c *Client) {
			defer wg.Done()
			for a := range c.Assignments() {
				if err := c.Complete(a.TaskID, id, "ok"); err == nil {
					completed.Add(1)
				}
			}
		}(id, c)
	}

	req := dial(t, s)
	for i := 0; i < nTasks; i++ {
		if err := req.Submit(testTask(fmt.Sprintf("t%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(20 * time.Second)
	for completed.Load() < nTasks && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if completed.Load() != nTasks {
		t.Fatalf("completed %d of %d", completed.Load(), nTasks)
	}
	st, err := req.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Completed != nTasks {
		t.Fatalf("stats = %+v", st)
	}
	s.Close() // closes feeds; worker goroutines exit
	wg.Wait()
}

func TestStatsAfterClose(t *testing.T) {
	s := startServer(t)
	c := dial(t, s)
	s.Close()
	if _, err := c.Stats(); err == nil {
		t.Fatal("stats succeeded on closed server")
	}
}

func TestDeregisterOverWire(t *testing.T) {
	s := startServer(t)
	c := dial(t, s)
	if err := c.Deregister(); err == nil {
		t.Fatal("deregister before register accepted")
	}
	if err := c.Register("w", 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Deregister(); err != nil {
		t.Fatal(err)
	}
	if err := c.Deregister(); err == nil {
		t.Fatal("double deregister accepted")
	}
	// The worker is gone from the registry.
	if st, _ := c.Stats(); st.WorkersOnline != 0 {
		t.Fatalf("workers online = %d after deregister", st.WorkersOnline)
	}
	// Re-registering the same id now works.
	if err := c.Register("w", 1, 1); err != nil {
		t.Fatal(err)
	}
}

func TestAvailabilityToggleOverWire(t *testing.T) {
	s := startServer(t)
	w := dial(t, s)
	if err := w.SetAvailable(false); err == nil {
		t.Fatal("availability before register accepted")
	}
	if err := w.Register("w", 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.SetAvailable(false); err != nil {
		t.Fatal(err)
	}
	req := dial(t, s)
	if err := req.Submit(testTask("t1")); err != nil {
		t.Fatal(err)
	}
	// Unavailable worker receives nothing.
	select {
	case a := <-w.Assignments():
		t.Fatalf("unavailable worker got %+v", a)
	case <-time.After(300 * time.Millisecond):
	}
	// Flipping back releases the queued task.
	if err := w.SetAvailable(true); err != nil {
		t.Fatal(err)
	}
	select {
	case a := <-w.Assignments():
		if a.TaskID != "t1" {
			t.Fatalf("assignment = %+v", a)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("assignment never arrived after re-enable")
	}
}

func TestLocationUpdateOverWire(t *testing.T) {
	s := startServer(t)
	c := dial(t, s)
	if err := c.SetLocation(1, 1); err == nil {
		t.Fatal("location before register accepted")
	}
	if err := c.Register("w", 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.SetLocation(200, 0); err == nil {
		t.Fatal("invalid coordinates accepted")
	}
	if err := c.SetLocation(37.98, 23.73); err != nil {
		t.Fatal(err)
	}
	p, ok := s.Core().Workers().Get("w")
	if !ok || p.Location().Lat != 37.98 {
		t.Fatalf("location not applied: %+v", p.Location())
	}
}

func TestReconnectKeepsHistory(t *testing.T) {
	s := startServer(t)
	// First session: build a history.
	w1 := dial(t, s)
	if err := w1.Register("veteran", 37.98, 23.73); err != nil {
		t.Fatal(err)
	}
	req := dial(t, s)
	req.Submit(testTask("t1"))
	select {
	case a := <-w1.Assignments():
		if err := w1.Complete(a.TaskID, "veteran", "ok"); err != nil {
			t.Fatal(err)
		}
		req.Feedback("t1", true)
	case <-time.After(5 * time.Second):
		t.Fatal("assignment never arrived")
	}
	// Disconnect: profile must survive, marked offline.
	w1.Close()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if p, ok := s.Core().Workers().Get("veteran"); ok && !p.Available() {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	p, ok := s.Core().Workers().Get("veteran")
	if !ok {
		t.Fatal("profile lost on disconnect")
	}
	if p.Finished() != 1 {
		t.Fatalf("history lost: finished = %d", p.Finished())
	}
	// Second session under the same id: reconnect with history intact.
	w2 := dial(t, s)
	if err := w2.Register("veteran", 38.00, 23.75); err != nil {
		t.Fatal(err)
	}
	p2, _ := s.Core().Workers().Get("veteran")
	if p2.Finished() != 1 {
		t.Fatalf("reconnect reset history: %d", p2.Finished())
	}
	if p2.Location().Lat != 38.00 {
		t.Fatalf("reconnect did not update location: %v", p2.Location())
	}
	// And receives work again.
	req.Submit(testTask("t2"))
	select {
	case a := <-w2.Assignments():
		if a.TaskID != "t2" {
			t.Fatalf("assignment = %+v", a)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reconnected worker never received work")
	}
}

func TestSecondLiveConnectionRejected(t *testing.T) {
	s := startServer(t)
	w1 := dial(t, s)
	if err := w1.Register("solo", 1, 1); err != nil {
		t.Fatal(err)
	}
	w2 := dial(t, s)
	if err := w2.Register("solo", 1, 1); err == nil {
		t.Fatal("second live connection for the same worker accepted")
	}
}

func TestTaskStatusQuery(t *testing.T) {
	s := startServer(t)
	c := dial(t, s)
	// Unknown task: reported, not an error — reconciling requesters use
	// "unknown" as the resubmit signal.
	st, err := c.TaskStatus("never-submitted")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "unknown" {
		t.Fatalf("state = %q, want unknown", st.State)
	}
	// Missing id: rejected.
	if _, err := c.TaskStatus(""); err == nil {
		t.Fatal("empty task id accepted")
	}
	// Live task: tracked through its lifecycle.
	w := dial(t, s)
	if err := w.Register("alice", 37.98, 23.73); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(testTask("t1")); err != nil {
		t.Fatal(err)
	}
	select {
	case a := <-w.Assignments():
		st, err = c.TaskStatus("t1")
		if err != nil || st.State != "assigned" || st.Worker != "alice" {
			t.Fatalf("assigned status = %+v, %v", st, err)
		}
		if err := w.Complete(a.TaskID, "alice", "ok"); err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("assignment never arrived")
	}
	st, err = c.TaskStatus("t1")
	if err != nil || st.State != "completed" || !st.MetDeadline {
		t.Fatalf("completed status = %+v, %v", st, err)
	}
}

func TestPing(t *testing.T) {
	s := startServer(t)
	c := dial(t, s)
	for i := 0; i < 3; i++ {
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if err := c.Ping(); err == nil {
		t.Fatal("ping succeeded on closed server")
	}
}

// TestCallTimerSurvivesReuse stresses the one-timer-per-client path where
// the stop-and-drain matters: with the timeout at one measured loopback round
// trip, replies and timer ticks race, so calls end both ways and now and then
// with the tick fired but unread. A tick left in the channel would time out
// the next call the moment it starts; after the storm every call under a
// generous timeout must get its own answer. (The deterministic half — a call
// after a timed-out call — is TestChaosSeqCorrelationAfterTimeout.)
func TestCallTimerSurvivesReuse(t *testing.T) {
	s := startServer(t)
	c := dial(t, s)
	start := time.Now()
	for i := 0; i < 100; i++ {
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
	}
	c.SetCallTimeout(time.Since(start) / 100)
	var timedOut int
	for i := 0; i < 1000; i++ {
		if err := c.Ping(); errors.Is(err, ErrTimeout) {
			timedOut++
		} else if err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
	}
	t.Logf("%d of 1000 pings timed out at one round trip", timedOut)
	c.SetCallTimeout(10 * time.Second)
	for i := 0; i < 50; i++ {
		if err := c.Ping(); err != nil {
			t.Fatalf("ping %d after the storm: %v", i, err)
		}
	}
}

// TestAssignmentPayloadDeadlineFromNow pins that the pushed deadline is
// measured from the instant the caller passes, not from the wall clock.
func TestAssignmentPayloadDeadlineFromNow(t *testing.T) {
	at := time.Date(2001, 2, 3, 4, 5, 6, 0, time.UTC) // far from any wall clock
	for _, tc := range []struct {
		name     string
		deadline time.Duration // after at
		want     int64
	}{
		{"ahead", 90 * time.Second, 90000},
		{"sub-millisecond truncates", 1500 * time.Microsecond, 1},
		{"already past", -2 * time.Second, -2000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := toAssignmentPayload(taskq.Record{Task: taskq.Task{ID: "t", Deadline: at.Add(tc.deadline)}}, at)
			if p.DeadlineMS != tc.want {
				t.Fatalf("DeadlineMS = %d, want %d", p.DeadlineMS, tc.want)
			}
		})
	}
}
