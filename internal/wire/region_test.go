package wire

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"react/internal/engine"
	"react/internal/region"
	"react/internal/schedule"
	"react/internal/taskq"
)

// TestFailedConnectionDeliveryRefused pins delivery straight into the
// connection: an assignment for a worker whose connection writer has
// failed is refused, the engine revokes it as undeliverable, and the task
// goes back to the pool and is assigned again.
func TestFailedConnectionDeliveryRefused(t *testing.T) {
	s := startServer(t)
	broken := dial(t, s)
	if err := broken.Register("broken", 37.98, 23.73); err != nil {
		t.Fatal(err)
	}
	// Fail the server side's writer without closing the socket, so the
	// worker stays routed and attached while its writer refuses every frame.
	v, ok := s.Core().routes.Load("broken")
	if !ok {
		t.Fatal("registered worker has no route")
	}
	w := v.(*conn).w
	w.mu.Lock()
	w.err = errors.New("injected write failure")
	w.mu.Unlock()

	req := dial(t, s)
	if err := req.Submit(testTask("t1")); err != nil {
		t.Fatal(err)
	}
	ledger := s.Core().Ledger()
	deadline := time.Now().Add(5 * time.Second)
	for ledger.Revoked(taskq.CauseUndeliverable) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("delivery to a failed connection was never refused")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The broken worker leaves; a healthy one gets the task.
	broken.Close()
	healthy := dial(t, s)
	if err := healthy.Register("healthy", 37.98, 23.73); err != nil {
		t.Fatal(err)
	}
	select {
	case a := <-healthy.Assignments():
		if a.TaskID != "t1" {
			t.Fatalf("assignment = %+v", a)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the refused task was never assigned again")
	}
	if st, _ := s.Core().Tasks().Get("t1"); st.Worker != "healthy" || st.Attempts < 2 {
		t.Fatalf("t1 = %+v, want held by healthy after at least two attempts", st)
	}
}

// TestRegisterWorkerReattachesReturningWorker pins register's reattach: a
// worker whose connection drops is unrouted and detached, and registering
// its id again from a new connection keeps its learned history, takes the
// new location and gets work there; while that session is live, a second
// one under the same id is refused.
func TestRegisterWorkerReattachesReturningWorker(t *testing.T) {
	s := startServer(t)
	r := s.Core()
	req := dial(t, s)

	first := dial(t, s)
	if err := first.Register("alice", 37.98, 23.73); err != nil {
		t.Fatal(err)
	}
	if err := req.Submit(testTask("t1")); err != nil {
		t.Fatal(err)
	}
	select {
	case a := <-first.Assignments():
		if err := first.Complete(a.TaskID, "alice", "done"); err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("assignment never arrived")
	}
	first.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		p, _ := r.Workers().Get("alice")
		if _, routed := r.routes.Load("alice"); !routed && !p.Connected() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("a dropped connection left its worker routed or attached")
		}
		time.Sleep(2 * time.Millisecond)
	}

	elsewhere := region.Point{Lat: 40.64, Lon: 22.94}
	second := dial(t, s)
	if err := second.Register("alice", elsewhere.Lat, elsewhere.Lon); err != nil {
		t.Fatalf("returning worker refused: %v", err)
	}
	p, _ := r.Workers().Get("alice")
	if p.FitSamples() != 1 {
		t.Fatalf("history lost across re-register: %d exec-time samples, want 1", p.FitSamples())
	}
	if got := p.Location(); got != elsewhere {
		t.Fatalf("location after re-register = %v, want %v", got, elsewhere)
	}
	t2 := testTask("t2")
	t2.Lat, t2.Lon = elsewhere.Lat, elsewhere.Lon
	if err := req.Submit(t2); err != nil {
		t.Fatal(err)
	}
	select {
	case a := <-second.Assignments():
		if a.TaskID != "t2" {
			t.Fatalf("assignment on the new connection = %+v", a)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("re-registered worker never received an assignment")
	}

	err := dial(t, s).Register("alice", 37.98, 23.73)
	if err == nil || !strings.Contains(err.Error(), "already connected") {
		t.Fatalf("second live session: err = %v, want \"already connected\"", err)
	}
}

// TestCloseEndsWorkerConnections pins what Close does to registered
// workers: it is idempotent, it ends each worker's connection, so the
// worker's assignment stream closes, and no worker registers afterwards.
func TestCloseEndsWorkerConnections(t *testing.T) {
	s := startServer(t)
	w := dial(t, s)
	if err := w.Register("alice", 37.98, 23.73); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	select {
	case a, open := <-w.Assignments():
		if open {
			t.Fatalf("assignment after Close: %+v", a)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close left the worker's connection open")
	}
	if c, err := Dial(s.Addr()); err == nil {
		defer c.Close()
		if err := c.Register("bob", 37.98, 23.73); err == nil {
			t.Fatal("register after Close succeeded")
		}
	}
}

// TestServerChurnUnderRace hammers one region with everything that can
// run concurrently in a deployment: requesters submitting, workers
// connecting, completing, disconnecting and deregistering, the Eq. 2
// monitor sweeping, and observers snapshotting stats and profiles. It
// asserts no counter is lost, no goroutine deadlocks, and — once every
// worker connection is gone — no task is left assigned to a worker without
// a route; its real payload is `go test -race ./internal/wire`, which CI
// runs on every change.
func TestServerChurnUnderRace(t *testing.T) {
	requesters, perRequester, churners := 4, 50, 6
	if testing.Short() {
		requesters, perRequester, churners = 2, 10, 3
	}
	// An aggressive monitor makes the Eq. 2 sweep actually contend with
	// submissions and completions instead of idling between them. A
	// MonitorPeriod below BatchPoll lowers the poll to it, so the engine
	// polls, and sweeps, every millisecond.
	s, err := Serve("127.0.0.1:0", engine.Config{
		MonitorPeriod: time.Millisecond,
		BatchPoll:     5 * time.Millisecond,
		Schedule:      schedule.Config{BatchBound: 1, BatchPeriod: 10 * time.Millisecond},
		Monitor:       engine.Monitor{}.Normalize(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	r := s.Core()

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Requesters: concurrent task streams with deadlines short enough that
	// some tasks expire while others complete.
	for q := 0; q < requesters; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			for i := 0; i < perRequester; i++ {
				task := testTask(fmt.Sprintf("t-%d-%d", q, i)).Task(time.Now())
				task.Deadline = time.Now().Add(50 * time.Millisecond)
				if err := r.Submit(task); err != nil {
					t.Errorf("submit %s: %v", task.ID, err)
					return
				}
			}
		}(q)
	}

	// Churning workers: connect, drain a few assignments (completing
	// them), then leave — alternating a dropped connection (detach) and
	// deregister, so both teardown paths run against the live loop.
	for w := 0; w < churners; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				id := fmt.Sprintf("churn-%d-%d", w, round)
				c, err := Dial(s.Addr())
				if err != nil {
					t.Errorf("dial %s: %v", id, err)
					return
				}
				if err := c.Register(id, 37.98, 23.73); err != nil {
					c.Close()
					t.Errorf("register %s: %v", id, err)
					return
				}
				for drained := 0; drained < 3; drained++ {
					var a AssignmentPayload
					var ok bool
					select {
					case a, ok = <-c.Assignments():
					case <-stop:
					}
					if !ok {
						break
					}
					// Completion may legitimately fail if the monitor already
					// revoked the assignment.
					_ = c.Complete(a.TaskID, id, "answer")
				}
				if round%2 == 1 {
					if err := c.Deregister(); err != nil {
						t.Errorf("deregister %s: %v", id, err)
					}
				}
				c.Close()
			}
		}(w)
	}

	// Observers: concurrent reads of every snapshot surface.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = s.Stats()
			if err := r.Workers().WriteSnapshot(io.Discard); err != nil {
				t.Errorf("WriteSnapshot: %v", err)
				return
			}
		}
	}()

	// Every submitted task must terminate: completed or expired.
	total := int64(requesters * perRequester)
	terminated := func() int64 { st := r.Stats(); return st.Completed + st.Expired }
	deadline := time.Now().Add(20 * time.Second)
	for terminated() < total && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	// Quiescence: every worker connection is torn down and its worker
	// detached or deregistered. A task still assigned must then be held by
	// a worker with a live route. (A round that checked availability just
	// before the last detach may still be releasing its binding, so the
	// check gets a moment to settle; a task stranded by a detach racing a
	// round would stay assigned.)
	quiet := func() bool { return s.Metrics().ConnsActive == 0 && r.Workers().CountConnected() == 0 }
	unrouted := func() (out []string) {
		for _, rec := range r.Tasks().AssignedTasks() {
			if _, ok := r.routes.Load(rec.Worker); !ok {
				out = append(out, rec.Task.ID+"@"+rec.Worker)
			}
		}
		return out
	}
	deadline = time.Now().Add(5 * time.Second)
	for !quiet() || len(unrouted()) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("not quiescent: %d connections, %d workers online, assigned without a route: %v",
				s.Metrics().ConnsActive, r.Workers().CountConnected(), unrouted())
		}
		time.Sleep(2 * time.Millisecond)
	}

	st := r.Stats()
	if done := st.Completed + st.Expired; done != total {
		t.Fatalf("only %d/%d tasks terminated (stats %+v)", done, total, st)
	}
	if st.Received != total {
		t.Errorf("Received = %d, want %d", st.Received, total)
	}
}
