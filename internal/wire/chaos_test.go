package wire

// Chaos tests: drive the wire layer through injected network faults — the
// failure modes §I of the paper attributes to a mobile crowd (abrupt
// disconnections, slow links, dead peers) — and assert that sequence
// correlation, drop detection, the idle deadline and keepalives deliver
// the resilience they promise. Redialing with backoff across resets and a
// server restart is loadgen's resilient mode, tested there.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"react/internal/faultnet"
)

func startProxy(t *testing.T, target string) *faultnet.Proxy {
	t.Helper()
	p, err := faultnet.New(faultnet.Config{Target: target})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// redial opens a fresh session and sets it up, retrying until deadline or
// stop: a server that has not yet noticed the old connection die refuses a
// worker's register as already connected.
func redial(addr string, deadline time.Time, stop <-chan struct{}, setup func(*Client) error) (*Client, error) {
	for {
		c, err := Dial(addr)
		if err == nil {
			if err = setup(c); err == nil {
				return c, nil
			}
			c.Close()
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("redial %s: %w", addr, err)
		}
		select {
		case <-stop:
			return nil, err
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// TestChaosConnectionResetsDuringLoad cuts every live connection twice in
// the middle of a run. Each drop must surface on the plain client — its
// feeds close, its calls fail rather than hang — and a fresh session must
// pick up where the old one left off: the detached worker's held task goes
// back to the pool and is reassigned once it registers again, and the
// requester resolves results lost to the outage by status query. No task
// may be lost and no response may be taken for another call's.
func TestChaosConnectionResetsDuringLoad(t *testing.T) {
	s := startServer(t)
	p := startProxy(t, s.Addr())
	deadline := time.Now().Add(30 * time.Second)

	var (
		mu         sync.Mutex
		mismatched int64
		reconnects int
		workerErr  error
	)
	retire := func(c *Client) {
		c.Close()
		mu.Lock()
		mismatched += c.Metrics().MismatchedResponses
		mu.Unlock()
	}
	stop := make(chan struct{})
	connect := func(setup func(*Client) error) *Client {
		t.Helper()
		c, err := redial(p.Addr(), deadline, stop, setup)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	register := func(c *Client) error { return c.Register("grinder", 37.98, 23.73) }
	worker := connect(register)
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		for {
			for a := range worker.Assignments() {
				worker.Complete(a.TaskID, "grinder", "ok") // lost to a reset, the task is reassigned
			}
			retire(worker)
			select {
			case <-stop:
				return
			default:
			}
			c, err := redial(p.Addr(), deadline, stop, register)
			mu.Lock()
			if err != nil {
				workerErr = err
			} else {
				reconnects++
			}
			mu.Unlock()
			if err != nil {
				return
			}
			worker = c
		}
	}()
	t.Cleanup(func() {
		close(stop)
		p.ResetAll()
		<-workerDone
	})

	watch := func(c *Client) error { return c.Watch() }
	requester := connect(watch)
	const n = 12
	pending := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("r%02d", i)
		if err := requester.Submit(testTask(id)); err != nil {
			t.Fatalf("submit %s: %v", id, err)
		}
		pending[id] = true
		if i == 3 || i == 7 {
			p.ResetAll()                         // cut every live connection mid-run
			for r := range requester.Results() { // drains until the drop closes the feed
				delete(pending, r.TaskID)
			}
			if err := requester.Ping(); err == nil {
				t.Fatal("call on a reset connection succeeded")
			}
			retire(requester)
			requester = connect(watch)
			mu.Lock()
			reconnects++
			mu.Unlock()
		}
	}

	// Resolve by result push when the watch is up, by status query when a
	// push was lost to an outage.
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
	retire(requester)
	mu.Lock()
	defer mu.Unlock()
	if workerErr != nil {
		t.Fatalf("worker session lost: %v", workerErr)
	}
	if len(pending) > 0 {
		t.Fatalf("unresolved tasks after resets: %v", pending)
	}
	if reconnects < 2 {
		t.Fatalf("two resets were injected but only %d sessions were re-established", reconnects)
	}
	if mismatched != 0 {
		t.Fatalf("%d responses taken for another call's", mismatched)
	}
}

// scriptedPeer serves one connection with script, which reads requests
// from dec and writes raw frames to w, then holds the connection until the
// client closes it. It returns the address to dial.
func scriptedPeer(t *testing.T, script func(dec *json.Decoder, w io.Writer)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		script(json.NewDecoder(nc), nc)
		io.Copy(io.Discard, nc)
	}()
	return ln.Addr().String()
}

// TestChaosSeqCorrelationAfterTimeout is the regression test for the
// response-desync bug: a call that times out leaves its response in
// flight; when that response finally lands it must be recognized as stale
// and discarded, not consumed as the answer to the next call. Before
// sequence correlation, the late "ok" here would have been returned to
// Stats(), whose real (stats-bearing) response would then desync every
// call after it.
func TestChaosSeqCorrelationAfterTimeout(t *testing.T) {
	// A slow peer: it holds the ping's answer until the ping has timed
	// out, and sends it ahead of the next call's own.
	timedOut := make(chan struct{})
	addr := scriptedPeer(t, func(dec *json.Decoder, w io.Writer) {
		var ping, stats Message
		if dec.Decode(&ping) != nil {
			return
		}
		<-timedOut
		fmt.Fprintf(w, `{"type":"ok","seq":%d}`+"\n", ping.Seq)
		if dec.Decode(&stats) != nil {
			return
		}
		fmt.Fprintf(w, `{"type":"ok","seq":%d,"stats":{"workers_online":3}}`+"\n", stats.Seq)
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetKeepalive(-1) // the script answers exactly the calls below

	var release sync.Once
	answerLate := func() { release.Do(func() { close(timedOut) }) }
	t.Cleanup(answerLate) // a failing test still lets the peer finish

	c.SetCallTimeout(50 * time.Millisecond)
	if err := c.Ping(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("delayed ping error = %v, want ErrTimeout", err)
	}
	c.SetCallTimeout(5 * time.Second)
	answerLate()

	// The next call must skip the stale frame and get its own answer.
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("call after timed-out call: %v", err)
	}
	if st.WorkersOnline != 3 {
		t.Fatalf("stats desynced: %+v", st)
	}
	m := c.Metrics()
	if m.StaleResponses != 1 {
		t.Fatalf("stale response not detected: %+v", m)
	}
	if m.MismatchedResponses != 0 {
		t.Fatalf("spurious mismatches: %+v", m)
	}

	// An unstamped "ok" is no exception. A scripted peer answers the stats
	// call with a bare, seq-less frame (carrying a bogus payload) before
	// the stamped one; the client must count the first stale and return
	// the second — accepting it positionally is the same desync.
	addr = scriptedPeer(t, func(dec *json.Decoder, w io.Writer) {
		var req Message
		if dec.Decode(&req) != nil {
			return
		}
		fmt.Fprintf(w, `{"type":"ok","stats":{"workers_online":99}}`+"\n")
		fmt.Fprintf(w, `{"type":"ok","seq":%d,"stats":{"workers_online":7}}`+"\n", req.Seq)
	})
	c2, err := Dial(addr)
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
