package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ServerError is an "error" response from the server: the request was
// delivered and rejected. Connection-level failures (closed sockets, call
// timeouts) are reported as other error types; what to do about either is
// the caller's decision — the client's job ends at reporting it.
type ServerError struct {
	msg string
	// Code is the server's machine-readable error class (one of the
	// Code* constants), "" when the server sent none.
	Code string
	// Admission carries the admission verdict behind a typed rejection
	// (status, probability, floor, retry-after hint), nil otherwise.
	Admission *AdmissionPayload
}

func (e *ServerError) Error() string { return "wire: " + e.msg }

// ErrTimeout wraps a call whose response did not arrive within the call
// timeout. The connection stays open: the late response, if it ever
// arrives, carries the old sequence number, is recognized as stale, and
// is discarded — it cannot desync later calls.
var ErrTimeout = errors.New("wire: call timeout")

const (
	// DefaultCallTimeout bounds one request/response round trip.
	DefaultCallTimeout = 30 * time.Second

	// DefaultKeepalive is how often an otherwise idle client pings so the
	// server's read deadline (Server.SetIdleTimeout) sees a live peer.
	// It must stay comfortably under DefaultIdleTimeout.
	DefaultKeepalive = 25 * time.Second

	// DefaultMaxBacklog bounds the inbound push queues. A client that
	// stops draining Assignments()/Results() past this depth is
	// disconnected so the server's DetachWorker path recovers any held
	// task, rather than the old behaviour of silently dropping frames
	// from a full 32-slot buffer while the server still believed the
	// task was assigned.
	DefaultMaxBacklog = 16384
)

// ClientMetrics are the wire-level health counters of one connection.
type ClientMetrics struct {
	StaleResponses      int64 // late responses discarded by Seq correlation
	MismatchedResponses int64 // responses whose Seq matched no outstanding request
	AssignmentBacklog   int   // assignment pushes queued but not yet consumed
	AssignmentHighWater int   // peak assignment backlog over the connection
	ResultBacklog       int
	ResultHighWater     int
	EventBacklog        int
	EventHighWater      int
	OverflowClosed      bool // connection closed because a backlog exceeded the limit
}

// Client is one connection to a REACT region server. A single client can
// act as a worker (Register, then drain Assignments and Complete), as a
// requester (Submit, Watch, drain Results, Feedback), or both. All methods
// are safe for concurrent use; requests are serialized on the wire and
// correlated with responses by sequence number, so a timed-out call cannot
// desync the ones that follow.
type Client struct {
	c net.Conn
	w *connWriter // coalesces outbound request frames (flush.go)

	reqMu     sync.Mutex    // one outstanding request at a time
	callTimer *time.Timer   // the call timeout, re-armed per call; guarded by reqMu
	seq       atomic.Uint64 // last sequence number stamped on a request
	// inflight is the seq of the call waiting for its answer, 0 when none
	// is. The read loop forwards a response only by swapping inflight
	// from its seq to 0, so resp's one slot holds at most that call's
	// answer, and the call takes it before it returns (answer, giveUp).
	inflight atomic.Uint64
	resp     chan Message

	callTimeout atomic.Int64 // ns
	keepalive   atomic.Int64 // ns; <=0 disables the idle pinger
	lastSend    atomic.Int64 // unixnano of the last request written

	ka *time.Timer // the keepalive: fires when the next ping is due

	stale      atomic.Int64
	mismatched atomic.Int64

	assignments *pushQueue[AssignmentPayload]
	results     *pushQueue[ResultPayload]
	events      *pushQueue[EventPayload]

	closeOnce sync.Once
	closed    chan struct{}
}

// Dial connects to a region server.
func Dial(addr string) (*Client, error) {
	c, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	cl := &Client{
		c:      c,
		w:      newConnWriter(c, writerConfig{}),
		resp:   make(chan Message, 1),
		closed: make(chan struct{}),
	}
	cl.callTimeout.Store(int64(DefaultCallTimeout))
	cl.keepalive.Store(int64(DefaultKeepalive))
	cl.lastSend.Store(time.Now().UnixNano())
	cl.assignments = newPushQueue[AssignmentPayload](DefaultMaxBacklog, cl.overflowClose)
	cl.results = newPushQueue[ResultPayload](DefaultMaxBacklog, cl.overflowClose)
	cl.events = newPushQueue[EventPayload](DefaultMaxBacklog, cl.overflowClose)
	// The re-arm orders the timer's first callback after this assignment.
	cl.ka = time.AfterFunc(DefaultKeepalive, cl.keepaliveFire)
	cl.armKeepalive()
	go cl.readLoop()
	return cl, nil
}

// SetCallTimeout bounds each request/response round trip (default
// DefaultCallTimeout). Zero or negative restores the default.
func (cl *Client) SetCallTimeout(d time.Duration) {
	if d <= 0 {
		d = DefaultCallTimeout
	}
	cl.callTimeout.Store(int64(d))
}

// SetKeepalive sets the idle ping interval (default DefaultKeepalive).
// Negative disables keepalives entirely; zero restores the default.
func (cl *Client) SetKeepalive(d time.Duration) {
	if d == 0 {
		d = DefaultKeepalive
	}
	cl.keepalive.Store(int64(d))
	cl.armKeepalive()
}

// Metrics snapshots the connection's health counters.
func (cl *Client) Metrics() ClientMetrics {
	m := ClientMetrics{
		StaleResponses:      cl.stale.Load(),
		MismatchedResponses: cl.mismatched.Load(),
	}
	var aOver, rOver, eOver bool
	m.AssignmentBacklog, m.AssignmentHighWater, _, aOver = cl.assignments.depthStats()
	m.ResultBacklog, m.ResultHighWater, _, rOver = cl.results.depthStats()
	m.EventBacklog, m.EventHighWater, _, eOver = cl.events.depthStats()
	m.OverflowClosed = aOver || rOver || eOver
	return m
}

// Close tears down the connection; pending calls fail with ErrClosed.
// The socket closes first so Close never waits on a wedged peer; the
// writer is then stopped, and the keepalive disarmed.
func (cl *Client) Close() error {
	cl.closeOnce.Do(func() {
		close(cl.closed)
		cl.c.Close()
		cl.w.close()
		cl.armKeepalive() // sees closed: stops the timer
	})
	return nil
}

// overflowClose is the push-queue overflow hook: a consumer this far
// behind will never catch up before its deadlines, so drop the connection
// and let reconnect/DetachWorker recover the work.
func (cl *Client) overflowClose() { cl.Close() }

func (cl *Client) readLoop() {
	scanner := bufio.NewScanner(cl.c)
	scanner.Buffer(make([]byte, 0, readBufStart), maxFrameBytes)
	var scr decodeScratch
	for scanner.Scan() {
		m, err := scr.decode(scanner.Bytes())
		if err != nil {
			continue // tolerate junk; the next frame resynchronizes
		}
		// The pushQueue copies the value, never the scratch pointer.
		switch m.Type {
		case "assignment":
			if m.Assignment != nil {
				cl.assignments.push(*m.Assignment)
			}
		case "result":
			if m.Result != nil {
				cl.results.push(*m.Result)
			}
		case "event":
			if m.Event != nil {
				cl.events.push(*m.Event)
			}
		default: // ok / error responses
			cl.answer(m)
		}
	}
	cl.Close()
	cl.assignments.close()
	cl.results.close()
	cl.events.close()
}

// answer hands a response to the call it answers. Only the call in flight
// is answered: a seq it does not carry is a late answer to a call that gave
// up (an unstamped response, Seq 0, counts here too: taking it positionally
// would re-open the desync Seq exists to close), or one from the future, a
// broken peer. Swapping inflight to 0 claims the call's answer, once. Every
// call takes the one answer claimed for it before it returns, so resp is
// empty here and the send never blocks.
func (cl *Client) answer(m *Message) {
	if m.Seq == 0 || !cl.inflight.CompareAndSwap(m.Seq, 0) {
		if m.Seq <= cl.seq.Load() {
			cl.stale.Add(1)
		} else {
			cl.mismatched.Add(1)
		}
		return
	}
	// The response escapes this loop to the waiting caller: copy it and
	// drop the scratch-backed pointers (a response never carries them;
	// Status/Stats/Regions/Admission are freshly allocated by the decoder
	// when present, so the copy owns them).
	resp := *m
	resp.Task, resp.Assignment, resp.Result, resp.Event = nil, nil, nil, nil
	resp.Available, resp.Positive = nil, nil
	cl.resp <- resp
}

// nextPing is how long a client whose last request went out idle ago
// waits before its next keepalive ping: the rest of the interval kd, so
// the connection is never request-silent for longer than kd, and zero
// once that is used up.
func nextPing(kd, idle time.Duration) time.Duration {
	if idle >= kd {
		return 0
	}
	return kd - idle
}

// keepaliveFire is the keepalive timer's callback: it pings if the
// connection has been request-idle for a whole interval, so the server's
// read deadline never fires on a healthy but quiet connection (e.g. a
// worker waiting for assignments), then re-arms for the next one.
func (cl *Client) keepaliveFire() {
	if kd := time.Duration(cl.keepalive.Load()); kd > 0 &&
		time.Since(time.Unix(0, cl.lastSend.Load())) >= kd {
		_ = cl.Ping() // a dead connection surfaces via the read loop
	}
	cl.armKeepalive()
}

// armKeepalive (re)arms the keepalive timer for the next ping (nextPing
// from the last request), or stops it when keepalives are disabled or the
// client is closed. Close closes cl.closed before it calls this, so a
// callback re-arming concurrently either is stopped by Close or sees
// closed itself.
func (cl *Client) armKeepalive() {
	if kd := time.Duration(cl.keepalive.Load()); kd > 0 {
		cl.ka.Reset(nextPing(kd, time.Since(time.Unix(0, cl.lastSend.Load()))))
	} else {
		cl.ka.Stop()
	}
	select {
	case <-cl.closed:
		cl.ka.Stop()
	default:
	}
}

// call sends one request and waits for its ok/error response, identified
// by sequence number. Stale responses — answers to calls that already
// timed out — are discarded and counted by the read loop (answer).
func (cl *Client) call(m Message) (Message, error) {
	cl.reqMu.Lock()
	defer cl.reqMu.Unlock()
	select {
	case <-cl.closed:
		return Message{}, ErrClosed
	default:
	}
	m.Seq = cl.seq.Add(1)
	cl.inflight.Store(m.Seq) // before the frame leaves: the answer may beat the enqueue's return
	cl.lastSend.Store(time.Now().UnixNano())
	fb := encodeFrame(&m)
	err := cl.w.enqueue(fb.b, true) // inline: the caller blocks on the reply anyway
	fb.release()
	if err != nil {
		return cl.giveUp(m.Seq, err)
	}
	// One timer per client, not one per call: three calls a task made the
	// runtime timer heap a hot spot. Stop-and-drain on the way out (the
	// pre-1.23 idiom go.mod's 1.22 calls for) leaves it quiet and its
	// channel empty for the next call's Reset.
	if d := time.Duration(cl.callTimeout.Load()); cl.callTimer == nil {
		cl.callTimer = time.NewTimer(d)
	} else {
		cl.callTimer.Reset(d)
	}
	timeout := cl.callTimer
	defer func() {
		if !timeout.Stop() {
			select {
			case <-timeout.C:
			default:
			}
		}
	}()
	//lint:ignore blockingunderlock waiting for the matching response under reqMu is the one-in-flight-call design; the timeout arm bounds the hold
	select {
	case resp := <-cl.resp:
		return reply(resp)
	case <-cl.closed:
		return cl.giveUp(m.Seq, ErrClosed)
	case <-timeout.C:
		return cl.giveUp(m.Seq, fmt.Errorf("%w: no response to %q within %v",
			ErrTimeout, m.Type, time.Duration(cl.callTimeout.Load())))
	}
}

// giveUp ends the call stamped seq with err, unless the read loop has
// already claimed its answer: that answer is then on its way into resp,
// and taking it keeps the slot empty for the next call.
func (cl *Client) giveUp(seq uint64, err error) (Message, error) {
	if cl.inflight.CompareAndSwap(seq, 0) {
		return Message{}, err
	}
	//lint:ignore blockingunderlock the read loop claimed this answer and sends it into an empty slot without blocking
	return reply(<-cl.resp)
}

// reply turns a call's response into its result: an "error" frame is a
// *ServerError.
func reply(resp Message) (Message, error) {
	if resp.Type == "error" {
		return resp, &ServerError{msg: resp.Error, Code: resp.Code, Admission: resp.Admission}
	}
	return resp, nil
}

// Register announces this connection as a worker at the given location.
// Assignments then arrive on Assignments().
func (cl *Client) Register(workerID string, lat, lon float64) error {
	_, err := cl.call(Message{Type: "register", Worker: workerID, Lat: lat, Lon: lon})
	return err
}

// Assignments is the stream of tasks pushed to this worker. Closed when
// the connection drops.
func (cl *Client) Assignments() <-chan AssignmentPayload { return cl.assignments.recv() }

// Deregister removes this connection's worker from the server. Any held
// task returns to the pool.
func (cl *Client) Deregister() error {
	_, err := cl.call(Message{Type: "deregister"})
	return err
}

// SetLocation updates this worker's location (mobile workers move between
// regions' weight ranges).
func (cl *Client) SetLocation(lat, lon float64) error {
	_, err := cl.call(Message{Type: "location", Lat: lat, Lon: lon})
	return err
}

// SetAvailable toggles this worker's willingness to receive assignments
// without dropping the connection (connectivity cycles, §I).
func (cl *Client) SetAvailable(v bool) error {
	_, err := cl.call(Message{Type: "available", Available: &v})
	return err
}

// Submit places a task. DeadlineMS is relative to server receipt.
// Rejections (duplicate id, queue full, admission) surface as
// *ServerError with the code and retry-after hint attached.
func (cl *Client) Submit(t TaskPayload) error {
	_, err := cl.call(Message{Type: "submit", Task: &t})
	return err
}

// SubmitAdmit places a task and returns the server's admission verdict
// alongside the error. The payload is nil when the server has no
// admission plane (and on transport failures); on typed rejections both
// the payload and a *ServerError are returned.
func (cl *Client) SubmitAdmit(t TaskPayload) (*AdmissionPayload, error) {
	resp, err := cl.call(Message{Type: "submit", Task: &t})
	return resp.Admission, err
}

// Complete reports this worker's answer for a held task.
func (cl *Client) Complete(taskID, workerID, answer string) error {
	_, err := cl.call(Message{Type: "complete", TaskID: taskID, Worker: workerID, Answer: answer})
	return err
}

// Feedback records the requester's verdict for a completed task.
func (cl *Client) Feedback(taskID string, positive bool) error {
	_, err := cl.call(Message{Type: "feedback", TaskID: taskID, Positive: &positive})
	return err
}

// Watch subscribes this connection to all task results; they arrive on
// Results().
func (cl *Client) Watch() error {
	_, err := cl.call(Message{Type: "watch"})
	return err
}

// Results is the stream of result pushes after Watch. Closed when the
// connection drops.
func (cl *Client) Results() <-chan ResultPayload { return cl.results.recv() }

// WatchEvents subscribes this connection to the server's lifecycle event
// stream; events arrive on Events(). An empty taskID streams every task's
// events; a non-empty one narrows the stream to that task's timeline.
// Calling it again replaces the previous subscription. The server-side
// buffer is bounded: a client that stops draining Events() loses frames
// rather than stalling the engine.
func (cl *Client) WatchEvents(taskID string) error {
	_, err := cl.call(Message{Type: "watch-events", TaskID: taskID})
	return err
}

// Events is the stream of lifecycle event pushes after WatchEvents. Closed
// when the connection drops.
func (cl *Client) Events() <-chan EventPayload { return cl.events.recv() }

// Ping round-trips a keepalive frame.
func (cl *Client) Ping() error {
	_, err := cl.call(Message{Type: "ping"})
	return err
}

// TaskStatus queries the lifecycle state of a task. State "unknown" means
// the server has no record of it — never submitted there, or already
// garbage-collected; requesters reconciling after a reconnect treat that
// as "resubmit".
func (cl *Client) TaskStatus(taskID string) (TaskStatusPayload, error) {
	resp, err := cl.call(Message{Type: "task", TaskID: taskID})
	if err != nil {
		return TaskStatusPayload{}, err
	}
	if resp.Status == nil {
		return TaskStatusPayload{}, fmt.Errorf("wire: task response missing payload")
	}
	return *resp.Status, nil
}

// Regions fetches per-region counters; single-region servers report one
// entry named "all".
func (cl *Client) Regions() ([]RegionStatsPayload, error) {
	resp, err := cl.call(Message{Type: "regions"})
	if err != nil {
		return nil, err
	}
	return resp.Regions, nil
}

// Stats fetches the server counters.
func (cl *Client) Stats() (StatsPayload, error) {
	resp, err := cl.call(Message{Type: "stats"})
	if err != nil {
		return StatsPayload{}, err
	}
	if resp.Stats == nil {
		return StatsPayload{}, fmt.Errorf("wire: stats response missing payload")
	}
	return *resp.Stats, nil
}
