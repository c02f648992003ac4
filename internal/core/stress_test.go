package core

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"react/internal/engine"
)

// TestServerChurnUnderRace hammers one server with everything that can
// run concurrently in a deployment: requesters submitting, workers
// joining, completing, detaching, and deregistering, the reassignment
// monitor sweeping, and observers snapshotting stats and profiles. It
// asserts no counter is lost and no goroutine deadlocks; its real
// payload is `go test -race ./internal/core`, which CI runs on every
// change — the paper's deadline-miss numbers mean nothing if the server
// that produces them races.
func TestServerChurnUnderRace(t *testing.T) {
	requesters, perRequester, churners := 4, 50, 6
	if testing.Short() {
		requesters, perRequester, churners = 2, 10, 3
	}

	opts := fastOptions()
	// An aggressive monitor makes the Eq. 2 sweep actually contend with
	// submissions and completions instead of idling between them.
	opts.MonitorPeriod = time.Millisecond
	opts.Monitor = engine.Monitor{}.Normalize()
	var results atomic.Int64
	opts.OnResult = func(Result) { results.Add(1) }

	s := New(opts)
	s.Start()
	defer s.Stop()

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Requesters: concurrent task streams with deadlines short enough
	// that some tasks expire while others complete.
	for r := 0; r < requesters; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < perRequester; i++ {
				id := fmt.Sprintf("t-%d-%d", r, i)
				if err := s.Submit(newTask(id, 50*time.Millisecond)); err != nil {
					t.Errorf("submit %s: %v", id, err)
					return
				}
			}
		}(r)
	}

	// Churning workers: register, drain a few assignments (completing
	// them), then leave — alternating the detach and deregister paths
	// so both feed-teardown branches run against the batch loop.
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
				feed, err := s.RegisterWorker(id, athens)
				if err != nil {
					t.Errorf("register %s: %v", id, err)
					return
				}
				for drained := 0; drained < 3; drained++ {
					var a Assignment
					var ok bool
					select {
					case a, ok = <-feed:
					case <-stop:
						ok = false
					}
					if !ok {
						break
					}
					// Completion may legitimately fail if the monitor
					// already revoked the assignment.
					_, _ = s.Complete(a.TaskID, id, "answer")
				}
				var err2 error
				if round%2 == 0 {
					err2 = s.DetachWorker(id)
				} else {
					err2 = s.DeregisterWorker(id)
				}
				if err2 != nil {
					t.Errorf("teardown %s: %v", id, err2)
					return
				}
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
			if err := s.Workers().WriteSnapshot(io.Discard); err != nil {
				t.Errorf("WriteSnapshot: %v", err)
				return
			}
		}
	}()

	// Every submitted task must terminate: completed or expired.
	total := int64(requesters * perRequester)
	deadline := time.Now().Add(20 * time.Second)
	for results.Load() < total && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	st := s.Stats()
	if results.Load() != total {
		t.Fatalf("only %d/%d tasks terminated (stats %+v)", results.Load(), total, st)
	}
	if st.Received != total {
		t.Errorf("Received = %d, want %d", st.Received, total)
	}
	if st.Completed+st.Expired != total {
		t.Errorf("Completed+Expired = %d+%d, want %d", st.Completed, st.Expired, total)
	}
}
