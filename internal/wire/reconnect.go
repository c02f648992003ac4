package wire

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ReconnectConfig parameterizes a ReconnectingClient. Zero fields take
// defaults.
type ReconnectConfig struct {
	Addr string // region server address (required)

	// Seed drives the backoff jitter. Reconnection timing is the only
	// randomness in the wire layer, and like every other draw in this
	// module it flows from an explicit seed — a chaos run reconnects on
	// the same schedule every time.
	Seed int64

	BaseDelay time.Duration // first retry delay (default 50ms)
	MaxDelay  time.Duration // backoff ceiling (default 5s)

	// MaxOutage bounds one continuous reconnection effort: if no session
	// can be established for this long, the client gives up and closes
	// itself, failing pending and future calls. Zero means the default
	// (2 minutes); negative retries forever.
	MaxOutage time.Duration

	CallTimeout time.Duration // per-call response timeout (default DefaultCallTimeout)
	Keepalive   time.Duration // idle ping interval (default DefaultKeepalive; negative disables)

	Logf func(format string, args ...any) // optional reconnect diagnostics
}

func (c ReconnectConfig) normalize() ReconnectConfig {
	if c.BaseDelay <= 0 {
		c.BaseDelay = 50 * time.Millisecond
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 5 * time.Second
	}
	if c.MaxOutage == 0 {
		c.MaxOutage = 2 * time.Minute
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = DefaultCallTimeout
	}
	if c.Keepalive == 0 {
		c.Keepalive = DefaultKeepalive
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// ReconnectingClient is a Client that survives connection loss: when the
// underlying connection dies it redials with exponential backoff and
// seeded jitter, re-registers its worker (the server's reconnect path
// keeps the learned profile), restores availability, re-subscribes the
// watch, and resumes the assignment and result feeds on stable channels
// that never close until Close. Calls issued during an outage block until
// the session is back (or MaxOutage expires); calls that failed on a dying
// connection are retried on the next one. Server-rejected requests and
// call timeouts are NOT retried — only connection faults are.
type ReconnectingClient struct {
	cfg ReconnectConfig

	mu         sync.Mutex
	cond       *sync.Cond // broadcast on publish/unpublish/close
	cur        *Client    // nil while disconnected
	epoch      uint64     // bumps on every established session
	down       bool       // terminal: no further sessions
	err        error      // terminal failure (nil after plain Close)
	rng        *rand.Rand // backoff jitter; guarded by mu
	worker     string     // desired session state, restored on reconnect:
	lat, lon   float64
	registered bool
	available  *bool
	watching   bool
	regOn      *Client // connection restore() already registered worker on
	regWorker  string
	agg        ClientMetrics // counters folded in from finished sessions

	// The stable feeds are accounted queues, not plain channels: the
	// session loop must never block handing a push to a slow consumer,
	// because the same loop is what re-establishes the connection — a
	// blocked delivery would stall reconnection behind the consumer.
	assignments *pushQueue[AssignmentPayload]
	results     *pushQueue[ResultPayload]

	reconnects atomic.Int64
	closed     chan struct{}
	closeOnce  sync.Once
	wg         sync.WaitGroup
}

// DialReconnecting starts a reconnecting client session. It returns
// immediately; the first connection is established in the background, and
// calls block until it is up. If the address stays unreachable past
// MaxOutage the client closes itself and calls fail with the dial error.
func DialReconnecting(cfg ReconnectConfig) (*ReconnectingClient, error) {
	if cfg.Addr == "" {
		return nil, errors.New("wire: reconnect: missing address")
	}
	cfg = cfg.normalize()
	rc := &ReconnectingClient{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		closed: make(chan struct{}),
	}
	rc.assignments = newPushQueue[AssignmentPayload](DefaultMaxBacklog, rc.overflow)
	rc.results = newPushQueue[ResultPayload](DefaultMaxBacklog, rc.overflow)
	rc.cond = sync.NewCond(&rc.mu)
	rc.wg.Add(1)
	go rc.run()
	return rc, nil
}

// Close tears down the current connection and stops reconnecting. The
// Assignments and Results channels close once the session loop drains.
func (rc *ReconnectingClient) Close() error {
	rc.fail(nil)
	rc.wg.Wait()
	return nil
}

// fail terminates the client: err is reported by subsequent calls (nil
// for a plain Close).
func (rc *ReconnectingClient) fail(err error) {
	rc.closeOnce.Do(func() {
		rc.mu.Lock()
		rc.down = true
		rc.err = err
		cur := rc.cur
		rc.mu.Unlock()
		close(rc.closed)
		if cur != nil {
			cur.Close()
		}
		rc.cond.Broadcast()
	})
}

// overflow is the stable-queue overflow hook: a consumer this far behind
// is treated as gone, exactly like Client's policy.
func (rc *ReconnectingClient) overflow() {
	rc.fail(errors.New("wire: reconnect: push backlog overflow"))
}

// Reconnects reports how many times a lost session has been re-established.
func (rc *ReconnectingClient) Reconnects() int64 { return rc.reconnects.Load() }

// Metrics aggregates wire-level counters across every session this client
// has had, including the live one.
func (rc *ReconnectingClient) Metrics() ClientMetrics {
	rc.mu.Lock()
	m := rc.agg
	if rc.cur != nil {
		m = foldMetrics(m, rc.cur.Metrics())
	}
	rc.mu.Unlock()
	// Backlog accounting lives in the stable queues; the per-connection
	// queues drain into them immediately, so their depths are transient.
	var aOver, rOver bool
	m.AssignmentBacklog, m.AssignmentHighWater, _, aOver = rc.assignments.depthStats()
	m.ResultBacklog, m.ResultHighWater, _, rOver = rc.results.depthStats()
	m.OverflowClosed = m.OverflowClosed || aOver || rOver
	return m
}

func foldMetrics(a, b ClientMetrics) ClientMetrics {
	a.StaleResponses += b.StaleResponses
	a.MismatchedResponses += b.MismatchedResponses
	a.DroppedResponses += b.DroppedResponses
	a.AssignmentBacklog = b.AssignmentBacklog
	a.ResultBacklog = b.ResultBacklog
	if b.AssignmentHighWater > a.AssignmentHighWater {
		a.AssignmentHighWater = b.AssignmentHighWater
	}
	if b.ResultHighWater > a.ResultHighWater {
		a.ResultHighWater = b.ResultHighWater
	}
	a.OverflowClosed = a.OverflowClosed || b.OverflowClosed
	return a
}

// run owns the connection lifecycle: connect, restore session state, pump
// pushes until the connection dies, repeat.
func (rc *ReconnectingClient) run() {
	defer rc.wg.Done()
	defer rc.assignments.close()
	defer rc.results.close()
	first := true
	for {
		cl, err := rc.connect()
		if err != nil {
			rc.fail(err)
			return
		}
		if cl == nil {
			return // closed during backoff
		}
		if !first {
			rc.reconnects.Add(1)
		}
		first = false
		rc.publish(cl)
		rc.pump(cl) // returns when the connection's feeds close
		rc.unpublish(cl)
		cl.Close()
		select {
		case <-rc.closed:
			return
		default:
		}
	}
}

// connect dials and restores session state, backing off between attempts.
// A nil client with nil error means the client was closed.
func (rc *ReconnectingClient) connect() (*Client, error) {
	start := time.Now()
	for attempt := 0; ; attempt++ {
		select {
		case <-rc.closed:
			return nil, nil
		default:
		}
		cl, err := Dial(rc.cfg.Addr)
		if err == nil {
			cl.SetCallTimeout(rc.cfg.CallTimeout)
			cl.SetKeepalive(rc.cfg.Keepalive)
			if err = rc.restore(cl); err == nil {
				return cl, nil
			}
			cl.Close()
		}
		rc.cfg.Logf("wire: reconnect %s attempt %d: %v", rc.cfg.Addr, attempt+1, err)
		if rc.cfg.MaxOutage >= 0 && time.Since(start) > rc.cfg.MaxOutage {
			return nil, fmt.Errorf("wire: %s unreachable for %v: %w", rc.cfg.Addr, rc.cfg.MaxOutage, err)
		}
		if !rc.sleep(rc.backoff(attempt)) {
			return nil, nil
		}
	}
}

// restore replays the desired session state onto a fresh connection: the
// reconnect handshake. Register rides the server's reconnect path (the
// profile and its learned history survive a detach), availability is
// reapplied, and the watch subscription is renewed. A failure here — e.g.
// the server still considers the old connection live because its idle
// deadline has not fired yet — aborts the attempt; the next backoff round
// retries after the server has had time to notice.
func (rc *ReconnectingClient) restore(cl *Client) error {
	rc.mu.Lock()
	worker, lat, lon, registered := rc.worker, rc.lat, rc.lon, rc.registered
	available := rc.available
	watching := rc.watching
	rc.mu.Unlock()
	if registered {
		if err := cl.Register(worker, lat, lon); err != nil {
			return err
		}
		// Remember that this connection carries the registration: a
		// Register call racing with this replay must not re-register on
		// the same connection (the server rejects a second live session).
		rc.mu.Lock()
		rc.regOn, rc.regWorker = cl, worker
		rc.mu.Unlock()
		if available != nil {
			if err := cl.SetAvailable(*available); err != nil {
				return err
			}
		}
	}
	if watching {
		if err := cl.Watch(); err != nil {
			return err
		}
	}
	return nil
}

// backoff returns the pre-jitter-scaled delay before retry attempt n:
// exponential from BaseDelay to MaxDelay with ±50% multiplicative jitter,
// so a crowd of workers dropped by the same fault does not redial in
// phase.
func (rc *ReconnectingClient) backoff(attempt int) time.Duration {
	if attempt > 30 {
		attempt = 30 // avoid shift overflow; MaxDelay caps long before this
	}
	d := rc.cfg.BaseDelay << uint(attempt)
	if d <= 0 || d > rc.cfg.MaxDelay {
		d = rc.cfg.MaxDelay
	}
	rc.mu.Lock()
	jitter := 0.5 + rc.rng.Float64() // [0.5, 1.5)
	rc.mu.Unlock()
	return time.Duration(float64(d) * jitter)
}

// sleep waits d, interruptible by Close; reports whether it slept fully.
func (rc *ReconnectingClient) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-rc.closed:
		return false
	case <-t.C:
		return true
	}
}

func (rc *ReconnectingClient) publish(cl *Client) {
	rc.mu.Lock()
	rc.cur = cl
	rc.epoch++
	rc.mu.Unlock()
	rc.cond.Broadcast()
}

func (rc *ReconnectingClient) unpublish(cl *Client) {
	rc.mu.Lock()
	if rc.cur == cl {
		rc.agg = foldMetrics(rc.agg, cl.Metrics())
		rc.cur = nil
	}
	rc.mu.Unlock()
	rc.cond.Broadcast()
}

// pump forwards one connection's pushes into the stable queues until the
// connection dies (its feed channels close). Pushes never block, so a
// slow consumer cannot stall the reconnect loop behind this call.
func (rc *ReconnectingClient) pump(cl *Client) {
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for a := range cl.Assignments() {
			rc.assignments.push(a)
		}
	}()
	go func() {
		defer wg.Done()
		for r := range cl.Results() {
			rc.results.push(r)
		}
	}()
	wg.Wait()
}

// conn returns a live connection with epoch > after, blocking through
// outages; it fails once the client is closed (returning the terminal
// error, or ErrClosed after a plain Close).
func (rc *ReconnectingClient) conn(after uint64) (*Client, uint64, error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	for {
		if rc.down {
			if rc.err != nil {
				return nil, 0, rc.err
			}
			return nil, 0, ErrClosed
		}
		if rc.cur != nil && rc.epoch > after {
			return rc.cur, rc.epoch, nil
		}
		rc.cond.Wait()
	}
}

// do runs one call, retrying on a fresh connection when the current one
// fails at the transport level. Server rejections and call timeouts are
// returned to the caller: the request was (or may have been) delivered,
// so blind replay is the caller's decision, not the transport's.
func (rc *ReconnectingClient) do(f func(cl *Client) error) error {
	var after uint64
	for {
		cl, epoch, err := rc.conn(after)
		if err != nil {
			return err
		}
		err = f(cl)
		if err == nil {
			return nil
		}
		var se *ServerError
		if errors.As(err, &se) || errors.Is(err, ErrTimeout) {
			return err
		}
		// Transport fault: make sure this session is torn down, then wait
		// for its replacement.
		cl.Close()
		after = epoch
	}
}

// Register announces the worker; after any reconnect the registration is
// replayed automatically, so the worker's assignment feed resumes without
// caller involvement.
func (rc *ReconnectingClient) Register(workerID string, lat, lon float64) error {
	rc.mu.Lock()
	rc.worker, rc.lat, rc.lon, rc.registered = workerID, lat, lon, true
	rc.mu.Unlock()
	err := rc.do(func(cl *Client) error {
		rc.mu.Lock()
		replayed := rc.regOn == cl && rc.regWorker == workerID
		rc.mu.Unlock()
		if replayed {
			return nil // restore() already registered on this connection
		}
		if err := cl.Register(workerID, lat, lon); err != nil {
			return err
		}
		rc.mu.Lock()
		rc.regOn, rc.regWorker = cl, workerID
		rc.mu.Unlock()
		return nil
	})
	if err != nil {
		var se *ServerError
		if errors.As(err, &se) {
			// The server rejected the registration; do not replay it.
			rc.mu.Lock()
			rc.registered = false
			rc.mu.Unlock()
		}
	}
	return err
}

// Deregister removes the worker entirely and stops replaying registration.
func (rc *ReconnectingClient) Deregister() error {
	err := rc.do(func(cl *Client) error { return cl.Deregister() })
	if err == nil {
		rc.mu.Lock()
		rc.registered = false
		rc.available = nil
		rc.regOn, rc.regWorker = nil, ""
		rc.mu.Unlock()
	}
	return err
}

// SetLocation updates the worker's location, remembered for reconnects.
func (rc *ReconnectingClient) SetLocation(lat, lon float64) error {
	err := rc.do(func(cl *Client) error { return cl.SetLocation(lat, lon) })
	if err == nil {
		rc.mu.Lock()
		rc.lat, rc.lon = lat, lon
		rc.mu.Unlock()
	}
	return err
}

// SetAvailable toggles assignment willingness, remembered for reconnects.
func (rc *ReconnectingClient) SetAvailable(v bool) error {
	err := rc.do(func(cl *Client) error { return cl.SetAvailable(v) })
	if err == nil {
		rc.mu.Lock()
		rc.available = &v
		rc.mu.Unlock()
	}
	return err
}

// Watch subscribes to result pushes; the subscription is renewed on every
// reconnect. Results pushed during an outage are not replayed — use
// TaskStatus to reconcile outstanding tasks after gaps.
func (rc *ReconnectingClient) Watch() error {
	err := rc.do(func(cl *Client) error { return cl.Watch() })
	if err == nil {
		rc.mu.Lock()
		rc.watching = true
		rc.mu.Unlock()
	}
	return err
}

// submitRetries bounds how many times Submit re-presents a task after a
// retryable rejection before surfacing the error to the caller.
const submitRetries = 4

// Submit places a task. During an outage it blocks until the session is
// back. A call timeout is returned as-is: the task may or may not have
// been accepted, and a resubmission of the same id is answered with a
// duplicate-task error, so replay is safe to attempt.
//
// Retryable rejections (queue full, admission rate limit) are retried up
// to submitRetries times, honoring the server's retry-after hint with
// seeded jitter so a crowd of rejected requesters does not re-present in
// phase. Permanent rejections (duplicate id, past deadline, probability
// floor) are returned immediately — the deadline only gets closer, so
// waiting cannot help.
func (rc *ReconnectingClient) Submit(t TaskPayload) error {
	for attempt := 0; ; attempt++ {
		err := rc.do(func(cl *Client) error { return cl.Submit(t) })
		var se *ServerError
		if err == nil || !errors.As(err, &se) || !se.Retryable() || attempt >= submitRetries {
			return err
		}
		wait := se.RetryAfter()
		if wait > 0 {
			rc.mu.Lock()
			jitter := 0.5 + rc.rng.Float64() // [0.5, 1.5)
			rc.mu.Unlock()
			wait = time.Duration(float64(wait) * jitter)
			if wait > rc.cfg.MaxDelay {
				wait = rc.cfg.MaxDelay
			}
		} else {
			wait = rc.backoff(attempt)
		}
		if !rc.sleep(wait) {
			return err
		}
	}
}

// Complete reports a worker's answer for a held task.
func (rc *ReconnectingClient) Complete(taskID, workerID, answer string) error {
	return rc.do(func(cl *Client) error { return cl.Complete(taskID, workerID, answer) })
}

// Feedback records the requester's verdict for a completed task.
func (rc *ReconnectingClient) Feedback(taskID string, positive bool) error {
	return rc.do(func(cl *Client) error { return cl.Feedback(taskID, positive) })
}

// Ping round-trips a keepalive frame on the current session.
func (rc *ReconnectingClient) Ping() error {
	return rc.do(func(cl *Client) error { return cl.Ping() })
}

// TaskStatus queries a task's lifecycle state.
func (rc *ReconnectingClient) TaskStatus(taskID string) (TaskStatusPayload, error) {
	var st TaskStatusPayload
	err := rc.do(func(cl *Client) error {
		var err error
		st, err = cl.TaskStatus(taskID)
		return err
	})
	return st, err
}

// Stats fetches the server counters.
func (rc *ReconnectingClient) Stats() (StatsPayload, error) {
	var st StatsPayload
	err := rc.do(func(cl *Client) error {
		var err error
		st, err = cl.Stats()
		return err
	})
	return st, err
}

// Regions fetches per-region counters.
func (rc *ReconnectingClient) Regions() ([]RegionStatsPayload, error) {
	var rs []RegionStatsPayload
	err := rc.do(func(cl *Client) error {
		var err error
		rs, err = cl.Regions()
		return err
	})
	return rs, err
}

// Assignments is the worker's assignment stream. Unlike Client, the
// channel survives reconnects and closes only on Close (or terminal
// failure).
func (rc *ReconnectingClient) Assignments() <-chan AssignmentPayload { return rc.assignments.out }

// Results is the requester's result stream after Watch; it survives
// reconnects and closes only on Close (or terminal failure).
func (rc *ReconnectingClient) Results() <-chan ResultPayload { return rc.results.out }
