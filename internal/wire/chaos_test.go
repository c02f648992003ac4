package wire

// Chaos tests: drive the wire layer through injected network faults — the
// failure modes §I of the paper attributes to a mobile crowd (abrupt
// disconnections, dead peers, partitions) plus a full server restart —
// and assert that sequence correlation, reconnection, and the idle
// deadline actually deliver the resilience they promise.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"react/internal/core"
	"react/internal/faultnet"
	"react/internal/journal"
	"react/internal/schedule"
)

func fastOptions() core.Options {
	return core.Options{
		BatchPoll:     5 * time.Millisecond,
		MonitorPeriod: 50 * time.Millisecond,
		Schedule:      schedule.Config{BatchBound: 1, BatchPeriod: 10 * time.Millisecond},
	}
}

func startProxy(t *testing.T, target string) *faultnet.Proxy {
	t.Helper()
	p, err := faultnet.New(faultnet.Config{Target: target, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func dialReconnecting(t *testing.T, addr string, seed int64) *ReconnectingClient {
	t.Helper()
	rc, err := DialReconnecting(ReconnectConfig{
		Addr:        addr,
		Seed:        seed,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    200 * time.Millisecond,
		MaxOutage:   30 * time.Second,
		CallTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rc.Close() })
	return rc
}

// TestChaosSeqCorrelationAfterTimeout is the regression test for the
// response-desync bug: a call that times out leaves its response in
// flight; when that response finally lands it must be recognized as stale
// and discarded, not consumed as the answer to the next call. Before
// sequence correlation, the late "ok" here would have been returned to
// Stats(), whose real (stats-bearing) response would then desync every
// call after it.
func TestChaosSeqCorrelationAfterTimeout(t *testing.T) {
	s := startServer(t)
	p := startProxy(t, s.Addr())
	c, err := Dial(p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.Ping(); err != nil { // warm the link fault-free
		t.Fatal(err)
	}

	p.SetDelay(250 * time.Millisecond) // round trip ≈500ms
	c.SetCallTimeout(50 * time.Millisecond)
	if err := c.Ping(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("delayed ping error = %v, want ErrTimeout", err)
	}

	// Let the late response land and park in the response buffer.
	c.SetCallTimeout(5 * time.Second)
	p.SetDelay(0)
	time.Sleep(700 * time.Millisecond)

	// The next call must skip the stale frame and get its own answer.
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("call after timed-out call: %v", err)
	}
	if st.WorkersOnline != 0 {
		t.Fatalf("stats desynced: %+v", st)
	}
	m := c.Metrics()
	if m.StaleResponses < 1 {
		t.Fatalf("stale response not detected: %+v", m)
	}
	if m.MismatchedResponses != 0 {
		t.Fatalf("spurious mismatches: %+v", m)
	}

	// An unstamped "ok" is no exception. A scripted peer answers the stats
	// call with a bare, seq-less frame (carrying a bogus payload) before
	// the stamped one; the client must count the first stale and return
	// the second — accepting it positionally is the same desync.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		var req Message
		if json.NewDecoder(nc).Decode(&req) != nil {
			return
		}
		fmt.Fprintf(nc, `{"type":"ok","stats":{"workers_online":99}}`+"\n")
		fmt.Fprintf(nc, `{"type":"ok","seq":%d,"stats":{"workers_online":7}}`+"\n", req.Seq)
		io.Copy(io.Discard, nc) // hold the connection until the client closes
	}()
	c2, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	st, err = c2.Stats()
	if err != nil {
		t.Fatalf("call answered after an unstamped frame: %v", err)
	}
	if st.WorkersOnline != 7 {
		t.Fatalf("unstamped response taken positionally: %+v", st)
	}
	if m := c2.Metrics(); m.StaleResponses != 1 || m.MismatchedResponses != 0 {
		t.Fatalf("unstamped response not counted stale: %+v", m)
	}
}

// TestChaosServerRestartZeroLostTasks runs a worker and a requester
// through the proxy, restarts the server under them (new port, state
// recovered from the write-ahead journal — the reactd crash/deploy
// cycle), retargets the proxy, and requires every task from both halves
// of the run to complete with the worker's learned history intact.
// Tasks submitted just before the restart are still in flight when the
// first server stops; recovery must return them to the pool so the
// second half resolves them.
func TestChaosServerRestartZeroLostTasks(t *testing.T) {
	dataDir := t.TempDir()
	store1, err := journal.Open(journal.Options{Dir: dataDir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	s1, _, err := ServeDurable("127.0.0.1:0", fastOptions(), store1)
	if err != nil {
		t.Fatal(err)
	}
	p := startProxy(t, s1.Addr())

	worker := dialReconnecting(t, p.Addr(), 1)
	if err := worker.Register("veteran", 37.98, 23.73); err != nil {
		t.Fatal(err)
	}
	requester := dialReconnecting(t, p.Addr(), 2)
	if err := requester.Watch(); err != nil {
		t.Fatal(err)
	}

	// The worker answers everything it is handed, across reconnects: the
	// stable assignment feed hides the outages.
	go func() {
		for a := range worker.Assignments() {
			worker.Complete(a.TaskID, "veteran", "ok")
		}
	}()

	runBatch := func(ids []string) {
		t.Helper()
		for _, id := range ids {
			if err := requester.Submit(testTask(id)); err != nil {
				t.Fatalf("submit %s: %v", id, err)
			}
		}
		want := make(map[string]bool, len(ids))
		for _, id := range ids {
			want[id] = true
		}
		deadline := time.After(20 * time.Second)
		for len(want) > 0 {
			select {
			case r := <-requester.Results():
				if want[r.TaskID] {
					delete(want, r.TaskID)
					requester.Feedback(r.TaskID, true)
				}
			case <-deadline:
				t.Fatalf("tasks never completed: %v", want)
			}
		}
	}

	runBatch([]string{"t1", "t2", "t3", "t4"})

	// Submit the next batch and stop the server before waiting on it: these
	// tasks are in flight — some assigned, some still pooled — when the
	// journal takes its final flush and the process "dies".
	inflight := []string{"t5", "t6", "t7", "t8"}
	for _, id := range inflight {
		if err := requester.Submit(testTask(id)); err != nil {
			t.Fatalf("submit %s: %v", id, err)
		}
	}

	// Restart: stop the server (flush-before-shutdown closes the journal),
	// recover a new one on a different port from the same data dir, and
	// retarget the proxy. No profile snapshot/restore hack: the worker's
	// history and every task come back from the write-ahead log.
	s1.Close()
	store2, err := journal.Open(journal.Options{Dir: dataDir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	s2, sum, err := ServeDurable("127.0.0.1:0", fastOptions(), store2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s2.Close() })
	if sum.Workers != 1 {
		t.Fatalf("recovered %d workers, want 1", sum.Workers)
	}
	if sum.Tasks < len(inflight) {
		t.Fatalf("recovered %d tasks, want at least the in-flight batch of %d",
			sum.Tasks, len(inflight))
	}
	p.SetTarget(s2.Addr())

	// Resolve the in-flight batch: by result push when the re-established
	// watch catches it, by status query when the push was lost to the
	// restart outage.
	pending := make(map[string]bool, len(inflight))
	for _, id := range inflight {
		pending[id] = true
	}
	deadline := time.Now().Add(30 * time.Second)
	for len(pending) > 0 && time.Now().Before(deadline) {
		select {
		case r := <-requester.Results():
			delete(pending, r.TaskID)
		case <-time.After(200 * time.Millisecond):
			for id := range pending {
				st, err := requester.TaskStatus(id)
				if err != nil {
					continue
				}
				if st.State == "completed" || st.State == "expired" {
					delete(pending, id)
				}
			}
		}
	}
	if len(pending) > 0 {
		t.Fatalf("in-flight tasks lost across restart: %v", pending)
	}

	runBatch([]string{"t9", "t10", "t11", "t12"})

	if worker.Reconnects() < 1 || requester.Reconnects() < 1 {
		t.Fatalf("reconnects: worker=%d requester=%d",
			worker.Reconnects(), requester.Reconnects())
	}
	prof, ok := s2.Core().Workers().Get("veteran")
	if !ok {
		t.Fatal("profile lost across restart")
	}
	if prof.Finished() < 8 {
		t.Fatalf("history across restart: finished = %d, want >= 8", prof.Finished())
	}
	if m := requester.Metrics(); m.MismatchedResponses != 0 {
		t.Fatalf("requester mismatches: %+v", m)
	}
}

// TestChaosConnectionResetsDuringLoad injects hard resets mid-run and
// requires every submitted task to reach a terminal state, using the
// task-status query to reconcile any results lost while the requester's
// watch subscription was down.
func TestChaosConnectionResetsDuringLoad(t *testing.T) {
	s := startServer(t)
	p := startProxy(t, s.Addr())

	worker := dialReconnecting(t, p.Addr(), 3)
	if err := worker.Register("grinder", 37.98, 23.73); err != nil {
		t.Fatal(err)
	}
	requester := dialReconnecting(t, p.Addr(), 4)
	if err := requester.Watch(); err != nil {
		t.Fatal(err)
	}
	go func() {
		for a := range worker.Assignments() {
			worker.Complete(a.TaskID, "grinder", "ok")
		}
	}()

	const n = 12
	pending := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("r%02d", i)
		if err := requester.Submit(testTask(id)); err != nil {
			t.Fatalf("submit %s: %v", id, err)
		}
		pending[id] = true
		if i == 3 || i == 7 {
			p.ResetAll() // cut every live connection mid-run
		}
	}

	// Resolve by result push when the watch is up, by status query when a
	// push was lost to an outage.
	deadline := time.Now().Add(30 * time.Second)
	for len(pending) > 0 && time.Now().Before(deadline) {
		select {
		case r := <-requester.Results():
			delete(pending, r.TaskID)
		case <-time.After(200 * time.Millisecond):
			for id := range pending {
				st, err := requester.TaskStatus(id)
				if err != nil {
					continue
				}
				if st.State == "completed" || st.State == "expired" {
					delete(pending, id)
				}
			}
		}
	}
	if len(pending) > 0 {
		t.Fatalf("unresolved tasks after resets: %v", pending)
	}
	if worker.Reconnects()+requester.Reconnects() < 1 {
		t.Fatal("resets were injected but nobody reconnected")
	}
	if m := requester.Metrics(); m.MismatchedResponses != 0 {
		t.Fatalf("requester mismatches: %+v", m)
	}
}

// TestChaosIdleDeadlineDetachesSilentWorker covers the server's read
// deadline: a worker whose connection goes silent (keepalives disabled —
// the pulled-cable case) must be detached within a bounded interval so
// its held capacity returns to the pool.
func TestChaosIdleDeadlineDetachesSilentWorker(t *testing.T) {
	s := startServer(t)
	s.SetIdleTimeout(200 * time.Millisecond)
	c := dial(t, s)
	c.SetKeepalive(-1) // silence: no pings
	if err := c.Register("sleeper", 37.98, 23.73); err != nil {
		t.Fatal(err)
	}
	// The server must notice the silence and tear the connection down,
	// which closes the assignment feed and marks the worker unavailable.
	select {
	case _, ok := <-c.Assignments():
		if ok {
			t.Fatal("unexpected assignment")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("idle connection never torn down")
	}
	prof, ok := s.Core().Workers().Get("sleeper")
	if !ok {
		t.Fatal("profile discarded on idle teardown")
	}
	if prof.Available() {
		t.Fatal("silent worker still marked available")
	}
}

// TestChaosKeepaliveSurvivesIdleDeadline is the counterpart: a healthy
// but quiet client pinging under the idle deadline must NOT be torn down.
func TestChaosKeepaliveSurvivesIdleDeadline(t *testing.T) {
	s := startServer(t)
	s.SetIdleTimeout(300 * time.Millisecond)
	c := dial(t, s)
	c.SetKeepalive(50 * time.Millisecond)
	if err := c.Register("steady", 37.98, 23.73); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Second) // several deadline windows, zero requests
	if err := c.Ping(); err != nil {
		t.Fatalf("keepalive failed to hold the connection: %v", err)
	}
	prof, ok := s.Core().Workers().Get("steady")
	if !ok || !prof.Available() {
		t.Fatal("quiet-but-alive worker lost availability")
	}
}
