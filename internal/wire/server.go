package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"react/internal/admission"
	"react/internal/core"
	"react/internal/engine"
	"react/internal/event"
	"react/internal/journal"
	"react/internal/profile"
	"react/internal/region"
	"react/internal/taskq"
)

// Regions says which region server a request belongs to. The transport
// always serves a *core.Server; the resolver only picks it — so a region
// behind a federation.Coordinator answers exactly like a lone one.
type Regions interface {
	// At returns the server owning the location's region, starting it on
	// first use; core.ErrStopped after Stop.
	At(loc region.Point) (*core.Server, error)
	// OfTask returns the server whose task store holds the task.
	OfTask(taskID string) (*core.Server, bool)
	// Regions lists the running servers, sorted by region id.
	Regions() []core.Region
	// Stop shuts every region server down.
	Stop()
}

// single is the one-region resolver: every location and every task belongs
// to the lone server, listed as region "all".
type single struct{ *core.Server }

func (s single) At(region.Point) (*core.Server, error) { return s.Server, nil }
func (s single) OfTask(string) (*core.Server, bool)    { return s.Server, true }
func (s single) Regions() []core.Region                { return []core.Region{{ID: "all", Server: s.Server}} }

// DefaultIdleTimeout is the server's per-connection read deadline: a
// connection that sends nothing — not even a keepalive ping — for this
// long is presumed dead and torn down, which detaches its worker and
// returns any held task to the pool. Clients ping every DefaultKeepalive
// (well under this) so healthy idle connections survive. Without the
// deadline, a silently dead connection (pulled cable, NAT timeout,
// partition) holds its worker "busy" forever.
const DefaultIdleTimeout = 90 * time.Second

// eventWatchDepth bounds one watch-events subscription's buffer. Deep
// enough to ride out transient client stalls; a stream that falls further
// behind drops frames (counted on the bus) rather than blocking the shard
// lock under which events are published.
const eventWatchDepth = 1024

// expiryPumpDepth bounds one region's expiry-push backlog. A tick that
// expires more tasks than this while the pump is behind drops the overflow
// (counted on the bus) instead of blocking the engine; requesters
// reconcile through the task-status query.
const expiryPumpDepth = 1024

// idStripes is the number of per-task-id locks that make a submit's
// cross-region duplicate check and the submit itself one step.
const idStripes = 64

// Server exposes region servers over TCP.
type Server struct {
	regions Regions
	ln      net.Listener

	idle atomic.Int64 // per-connection read deadline (ns); <=0 disables

	// Transport-level health counters, snapshotted by Metrics for the
	// observability plane. Atomics: the read loops bump them per frame,
	// the per-connection flushers per flush.
	connsTotal    atomic.Int64
	framesRead    atomic.Int64
	framesWritten atomic.Int64
	badFrames     atomic.Int64
	errorsSent    atomic.Int64
	bytesWritten  atomic.Int64
	flushes       atomic.Int64

	// flushObs, when set, receives every flush's shape (frame count, byte
	// count, syscall latency in seconds) — how the observability plane
	// builds its frames-per-flush and flush-latency histograms.
	flushObs atomic.Value // func(frames, bytes int, latencySeconds float64)

	// pumps maps each region server seen so far to the subscription its
	// expiry pump drains (*core.Server → *event.Subscription). Read without
	// mu on every register and submit; written under mu.
	pumps sync.Map

	// ids serialise submits of the same task id (striped by FNV-1a).
	ids [idStripes]sync.Mutex

	mu       sync.Mutex
	watchers map[*conn]struct{}
	conns    map[*conn]struct{}
	wg       sync.WaitGroup
	closed   bool
}

// ServerMetrics is a snapshot of one Server's transport-level counters.
type ServerMetrics struct {
	ConnsActive   int   // connections currently open
	ConnsTotal    int64 // connections ever accepted
	Watchers      int   // connections subscribed to result pushes
	FramesRead    int64 // frames parsed off all connections
	FramesWritten int64 // frames written (responses + pushes)
	BadFrames     int64 // inbound frames that failed to parse
	ErrorsSent    int64 // "error" responses sent
	BytesWritten  int64 // frame bytes flushed onto sockets
	Flushes       int64 // coalesced write syscalls (FramesWritten/Flushes = batching factor)
}

// Metrics snapshots the transport counters.
func (s *Server) Metrics() ServerMetrics {
	s.mu.Lock()
	active, watchers := len(s.conns), len(s.watchers)
	s.mu.Unlock()
	return ServerMetrics{
		ConnsActive:   active,
		ConnsTotal:    s.connsTotal.Load(),
		Watchers:      watchers,
		FramesRead:    s.framesRead.Load(),
		FramesWritten: s.framesWritten.Load(),
		BadFrames:     s.badFrames.Load(),
		ErrorsSent:    s.errorsSent.Load(),
		BytesWritten:  s.bytesWritten.Load(),
		Flushes:       s.flushes.Load(),
	}
}

// SetFlushObserver installs a callback receiving every connection flush's
// shape: frames coalesced, bytes written, and write-syscall latency in
// seconds. The observability plane feeds histograms from it.
func (s *Server) SetFlushObserver(fn func(frames, bytes int, latencySeconds float64)) {
	if fn != nil {
		s.flushObs.Store(fn)
	}
}

// observeFlush is every connection writer's OnFlush hook: it aggregates
// the transport counters and forwards to the installed observer.
func (s *Server) observeFlush(frames, bytes int, elapsed time.Duration) {
	s.framesWritten.Add(int64(frames))
	s.bytesWritten.Add(int64(bytes))
	s.flushes.Add(1)
	if obs, _ := s.flushObs.Load().(func(int, int, float64)); obs != nil {
		obs(frames, bytes, elapsed.Seconds())
	}
}

type conn struct {
	c      net.Conn
	w      *connWriter   // coalesces every outbound frame (flush.go)
	scr    decodeScratch // reusable decode state; readLoop-only
	worker string        // non-empty once registered
	cs     *core.Server  // the region server worker registered on: the connection is the worker's route
	srv    *Server

	evMu   sync.Mutex
	evSubs []*event.Subscription // non-empty after watch-events
}

// ServeDurable starts one region server listening on addr (e.g.
// "127.0.0.1:7341" or ":0" for an ephemeral port): the core server is
// constructed from opts, started, and served by ServeRegions. With a store
// it adds crash recovery: the journal store's recovered state is
// bulk-loaded into the fresh region server before it starts, every
// subsequent mutation is write-ahead journaled, and Close flushes the
// journal after the last connection drains. The returned summary says what
// was recovered, for startup logs. A nil store serves without persistence.
//
// The store must come straight from journal.Open — its recovered state is
// consumed here. On error the store is left open; the caller owns closing
// it.
func ServeDurable(addr string, opts core.Options, store *journal.Store) (*Server, journal.Summary, error) {
	cs := core.New(opts)
	var sum journal.Summary
	if store != nil {
		var err error
		if sum, err = cs.EnablePersistence(store); err != nil {
			return nil, sum, err
		}
	}
	cs.Start()
	s, err := ServeRegions(addr, single{cs})
	if err != nil {
		cs.Stop() // closes the journal store too
		return nil, sum, err
	}
	return s, sum, nil
}

// Serve is ServeDurable without a journal.
func Serve(addr string, opts core.Options) (*Server, error) {
	s, _, err := ServeDurable(addr, opts, nil)
	return s, err
}

// ServeRegions exposes already-running region servers (e.g. behind a
// federation coordinator) on addr. Watchers get every task's result: a
// completion is pushed by the connection that completed it, an expiry by
// the transport's expiry pump on the task's region — one per region
// server, opened here for the running ones and on first sight for regions
// the resolver starts later.
func ServeRegions(addr string, rs Regions) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		regions:  rs,
		watchers: make(map[*conn]struct{}),
		conns:    make(map[*conn]struct{}),
	}
	s.idle.Store(int64(DefaultIdleTimeout))
	for _, r := range rs.Regions() {
		s.pumpExpiries(r.Server)
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr reports the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// SetIdleTimeout changes the per-connection read deadline (default
// DefaultIdleTimeout). Zero or negative disables it. Existing connections
// adopt the new value at their next frame.
func (s *Server) SetIdleTimeout(d time.Duration) { s.idle.Store(int64(d)) }

// Core exposes the lone region server of a single-region deployment
// (Serve, ServeDurable); it is nil when a coordinator resolves regions.
func (s *Server) Core() *core.Server {
	one, _ := s.regions.(single)
	return one.Server
}

// Regions lists the running region servers, sorted by region id.
func (s *Server) Regions() []core.Region { return s.regions.Regions() }

// Stats sums the counters of every running region server.
func (s *Server) Stats() core.Stats {
	var total core.Stats
	for _, r := range s.regions.Regions() {
		total.Add(r.Server.Stats())
	}
	return total
}

// at resolves a location's region server, starting the region's expiry
// pump the first time the transport sees it.
func (s *Server) at(loc region.Point) (*core.Server, error) {
	cs, err := s.regions.At(loc)
	if err != nil {
		return nil, err
	}
	if _, ok := s.pumps.Load(cs); !ok {
		s.pumpExpiries(cs)
	}
	return cs, nil
}

// pumpExpiries opens cs's expiry subscription and its pump goroutine,
// unless one is open already or the transport is closed.
func (s *Server) pumpExpiries(cs *core.Server) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.pumps.Load(cs); ok || s.closed {
		return
	}
	sub := cs.Events().Subscribe(expiryPumpDepth, func(ev event.Event) bool {
		return ev.Kind == event.KindExpire
	})
	s.pumps.Store(cs, sub)
	s.wg.Add(1)
	go s.expiryPump(sub)
}

// expiryPump pushes a result frame to every watcher for each expiry on one
// region, off the engine's tick goroutine; it ends when Close closes sub.
func (s *Server) expiryPump(sub *event.Subscription) {
	defer s.wg.Done()
	for ev := range sub.C() {
		s.broadcast(Message{Type: "result", Result: &ResultPayload{TaskID: ev.Task, Expired: true}})
	}
}

// idLock is the stripe lock for a task id.
func (s *Server) idLock(id string) *sync.Mutex {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint32(id[i])) * prime32
	}
	return &s.ids[h%idStripes]
}

// ofTask resolves the region server holding a task. A task no region holds
// answers what a lone server answers.
func (s *Server) ofTask(taskID string) (*core.Server, error) {
	if cs, ok := s.regions.OfTask(taskID); ok {
		return cs, nil
	}
	return nil, fmt.Errorf("%w: %q", taskq.ErrUnknownTask, taskID)
}

// Close stops accepting, drops every connection, and stops the region
// servers.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.c.Close()
	}
	s.pumps.Range(func(_, sub any) bool {
		sub.(*event.Subscription).Close() // ends that region's expiry pump
		return true
	})
	s.wg.Wait()
	s.regions.Stop()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c := &conn{c: nc, srv: s}
		c.w = newConnWriter(nc, writerConfig{OnFlush: s.observeFlush})
		s.connsTotal.Add(1)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go c.readLoop()
	}
}

func (s *Server) broadcast(m Message) {
	s.mu.Lock()
	targets := make([]*conn, 0, len(s.watchers))
	for c := range s.watchers {
		targets = append(targets, c)
	}
	s.mu.Unlock()
	// Encode once, enqueue the same bytes everywhere: a broadcast to 10k
	// watchers costs one encode, and each connection's flusher coalesces
	// it with whatever else is in flight there.
	fb := encodeFrame(&m)
	for _, c := range targets {
		if err := c.w.enqueue(fb.b, false); err != nil {
			// A watcher that cannot be written to is dead or wedged.
			// Close its socket so the read loop errors out and teardown
			// removes it from s.watchers — a write error alone never
			// wakes the read side, and without this nudge a dead watcher
			// would stay subscribed until TCP happened to fail a read.
			c.c.Close()
		}
	}
	fb.release()
}

// send frames m and hands it to the connection's coalescer; the flusher
// performs the actual write. An error is the writer's sticky failure —
// the socket is already being torn down.
func (c *conn) send(m Message) error {
	fb := encodeFrame(&m)
	err := c.w.enqueue(fb.b, true) // inline: a reply should reach the waiting peer now
	fb.release()
	return err
}

// reply answers one request, echoing its sequence number so the client
// can correlate the response even after its own call timed out. Errors
// with a known class additionally carry a machine-readable Code so
// clients distinguish retryable from permanent failures.
func (c *conn) reply(seq uint64, err error) {
	if err != nil {
		c.srv.errorsSent.Add(1)
		c.send(Message{Type: "error", Seq: seq, Error: err.Error(), Code: errCode(err)})
		return
	}
	c.send(Message{Type: "ok", Seq: seq})
}

// errCode maps a region server's error to its stable wire code ("" for errors
// with no defined class).
func errCode(err error) string {
	var rej *admission.RejectionError
	switch {
	case errors.As(err, &rej):
		return string(rej.Decision.Status)
	case errors.Is(err, engine.ErrQueueFull):
		return CodeQueueFull
	case errors.Is(err, taskq.ErrDuplicateTask):
		return CodeDuplicateTask
	case errors.Is(err, taskq.ErrPastDeadline):
		return CodePastDeadline
	}
	return ""
}

// requester identifies the submitting party for per-requester rate
// fairness: the registered worker id when the connection has one, else
// the remote address — one bucket per connection, which is the natural
// identity a TCP transport can actually attest.
func (c *conn) requester() string {
	if c.worker != "" {
		return c.worker
	}
	return c.c.RemoteAddr().String()
}

func (c *conn) readLoop() {
	defer c.srv.wg.Done()
	defer c.teardown()
	scanner := bufio.NewScanner(c.c)
	scanner.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for {
		// Refresh the idle deadline before every frame: a connection that
		// goes silent past it (no requests, no keepalive pings) fails the
		// next Scan, and teardown detaches its worker within a bounded
		// interval instead of holding it busy forever.
		if d := time.Duration(c.srv.idle.Load()); d > 0 {
			c.c.SetReadDeadline(time.Now().Add(d))
		} else {
			c.c.SetReadDeadline(time.Time{})
		}
		if !scanner.Scan() {
			return // EOF, error, or idle deadline
		}
		c.srv.framesRead.Add(1)
		m, err := c.scr.decode(scanner.Bytes())
		if err != nil {
			c.srv.badFrames.Add(1)
			c.srv.errorsSent.Add(1)
			c.send(Message{Type: "error", Seq: m.Seq, Error: "bad message: " + err.Error()})
			continue
		}
		c.handle(m)
	}
}

func (c *conn) handle(m *Message) {
	s := c.srv
	switch m.Type {
	case "register":
		if m.Worker == "" {
			c.reply(m.Seq, errors.New("register: missing worker id"))
			return
		}
		if c.worker != "" {
			// One worker per connection: teardown detaches only c.worker, so
			// a second register would leave the first available forever.
			c.reply(m.Seq, fmt.Errorf("register: connection already serves worker %q", c.worker))
			return
		}
		loc := region.Point{Lat: m.Lat, Lon: m.Lon}
		cs, err := s.at(loc)
		if err != nil {
			c.reply(m.Seq, err)
			return
		}
		// A returning worker (journal-recovered, or one whose old connection
		// is gone) re-attaches under its id and keeps its learned history;
		// a second *live* connection is refused.
		feed, err := cs.RegisterWorker(m.Worker, loc)
		if err != nil {
			c.reply(m.Seq, err)
			return
		}
		c.worker, c.cs = m.Worker, cs
		c.reply(m.Seq, nil)
		// Forward assignments until the feed closes (deregistration or
		// server stop).
		//lint:ignore nakedgoroutine the forwarder's lifetime is the feed channel: the backend closes it on deregister/detach/stop
		go func() {
			for a := range feed {
				if err := c.send(Message{Type: "assignment", Assignment: toAssignmentPayload(a, time.Now())}); err != nil {
					c.c.Close()
					return
				}
			}
		}()

	case "deregister":
		if c.worker == "" {
			c.reply(m.Seq, errors.New("deregister: connection has no registered worker"))
			return
		}
		worker, cs := c.worker, c.cs
		c.worker, c.cs = "", nil // teardown must not deregister twice
		c.reply(m.Seq, cs.DeregisterWorker(worker))

	case "location":
		p, ok := c.profile()
		if !ok {
			c.reply(m.Seq, errors.New("location: connection has no registered worker"))
			return
		}
		loc := region.Point{Lat: m.Lat, Lon: m.Lon}
		if !loc.Valid() {
			c.reply(m.Seq, fmt.Errorf("location: invalid coordinates %v", loc))
			return
		}
		p.SetLocation(loc)
		c.reply(m.Seq, nil)

	case "available":
		p, ok := c.profile()
		if !ok {
			c.reply(m.Seq, errors.New("available: connection has no registered worker"))
			return
		}
		if m.Available == nil {
			c.reply(m.Seq, errors.New("available: missing value"))
			return
		}
		p.SetAvailable(*m.Available)
		c.reply(m.Seq, nil)

	case "submit":
		if m.Task == nil || m.Task.ID == "" {
			c.reply(m.Seq, errors.New("submit: missing task"))
			return
		}
		//lint:ignore clocktaint the live server stamps real arrival time on submitted tasks by definition; replayable runs go through the sim harness
		t := m.Task.Task(time.Now())
		cs, err := s.at(t.Location)
		if err != nil {
			c.reply(m.Seq, err)
			return
		}
		// Task ids are unique across a federation as they are on a lone
		// server: a second submit of an id another region still holds is a
		// duplicate (same-region duplicates are the task store's own check).
		// The id's stripe lock makes the check and the submit one step, so
		// two first submits racing into different regions cannot both land.
		idMu := s.idLock(t.ID)
		idMu.Lock()
		if owner, ok := s.regions.OfTask(t.ID); ok && owner != cs {
			idMu.Unlock()
			c.reply(m.Seq, fmt.Errorf("%w: %q", taskq.ErrDuplicateTask, t.ID))
			return
		}
		// With an admission plane the reply carries the verdict: ok frames
		// the probability, error frames the typed status plus a retry-after
		// hint. With admission off the Admission field simply never
		// appears, which is what keeps old clients working.
		d, err := cs.SubmitFrom(c.requester(), t)
		idMu.Unlock()
		reply := Message{Type: "ok", Seq: m.Seq}
		if err != nil {
			c.srv.errorsSent.Add(1)
			reply = Message{Type: "error", Seq: m.Seq, Error: err.Error(), Code: errCode(err)}
		}
		if cs.Admission() != nil && (err == nil || !d.Admitted()) {
			reply.Admission = toAdmissionPayload(d)
		}
		c.send(reply)

	case "complete":
		if m.TaskID == "" || m.Worker == "" {
			c.reply(m.Seq, errors.New("complete: missing task or worker id"))
			return
		}
		cs, err := s.ofTask(m.TaskID)
		if err == nil {
			var res core.Result
			if res, err = cs.Complete(m.TaskID, m.Worker, m.Answer); err == nil {
				// Watchers hear the answer before the worker hears ok.
				s.broadcast(Message{Type: "result", Result: toResultPayload(res)})
			}
		}
		c.reply(m.Seq, err)

	case "feedback":
		if m.TaskID == "" || m.Positive == nil {
			c.reply(m.Seq, errors.New("feedback: missing task id or verdict"))
			return
		}
		cs, err := s.ofTask(m.TaskID)
		if err == nil {
			err = cs.Feedback(m.TaskID, *m.Positive)
		}
		c.reply(m.Seq, err)

	case "watch":
		s.mu.Lock()
		s.watchers[c] = struct{}{}
		s.mu.Unlock()
		c.reply(m.Seq, nil)

	case "task":
		// Task-status query: how requesters reconcile after a reconnect,
		// since result pushes during the outage are gone for good.
		if m.TaskID == "" {
			c.reply(m.Seq, errors.New("task: missing task id"))
			return
		}
		payload := &TaskStatusPayload{TaskID: m.TaskID, State: "unknown"}
		if cs, ok := s.regions.OfTask(m.TaskID); ok {
			if rec, ok := cs.Tasks().Get(m.TaskID); ok {
				payload.State = rec.Status.String()
				payload.Worker = rec.Worker
				payload.MetDeadline = rec.Status == taskq.Completed && rec.MetDeadline()
			}
		}
		c.send(Message{Type: "ok", Seq: m.Seq, Status: payload})

	case "watch-events":
		// Subscribe this connection to the lifecycle event spine. With a
		// TaskID the stream narrows to that task's timeline
		// (submit→assign→…→terminal) on the region that holds it — or, for
		// a task not submitted yet, on every running region: ids are unique
		// across regions, so at most one bus ever emits it. Without a
		// TaskID every lifecycle event of the one running region flows;
		// each engine owns its bus and its Seq, so several regions are not
		// merged into one stream. The subscription is bounded and lossy by
		// design: a client that cannot keep up loses frames (counted on the
		// bus), never stalls the engine.
		taskID := m.TaskID
		sources := s.regions.Regions()
		if taskID == "" {
			if len(sources) != 1 {
				c.reply(m.Seq, fmt.Errorf("watch-events: an unscoped stream needs exactly one running region, have %d; pass a task id", len(sources)))
				return
			}
		} else if cs, ok := s.regions.OfTask(taskID); ok {
			sources = []core.Region{{Server: cs}}
		}
		filter := func(ev event.Event) bool {
			if !ev.Kind.Lifecycle() {
				return false
			}
			return taskID == "" || ev.Task == taskID
		}
		subs := make([]*event.Subscription, len(sources))
		for i, r := range sources {
			subs[i] = r.Server.Events().Subscribe(eventWatchDepth, filter)
		}
		c.evMu.Lock()
		prev := c.evSubs
		c.evSubs = subs
		c.evMu.Unlock()
		closeAll(prev) // re-subscribe replaces the old stream
		c.reply(m.Seq, nil)
		for _, sub := range subs {
			// Forward until the subscription closes (teardown or replacement).
			//lint:ignore nakedgoroutine the forwarder's lifetime is the subscription channel: teardown or a replacing watch-events closes it
			go func() {
				for ev := range sub.C() {
					if err := c.send(Message{Type: "event", Event: toEventPayload(ev)}); err != nil {
						c.c.Close()
						return
					}
				}
			}()
		}

	case "regions":
		rs := s.regions.Regions()
		regions := make([]RegionStatsPayload, len(rs))
		for i, r := range rs {
			regions[i] = RegionStatsPayload{Region: r.ID, Stats: *toStatsPayload(r.Server.Stats())}
		}
		c.send(Message{Type: "ok", Seq: m.Seq, Regions: regions})

	case "ping":
		// Keepalive: refreshes the server's idle deadline, lets clients
		// detect dead connections through NATs, and lets operators probe
		// liveness with netcat.
		c.reply(m.Seq, nil)

	case "stats":
		c.send(Message{Type: "ok", Seq: m.Seq, Stats: toStatsPayload(s.Stats())})

	default:
		c.reply(m.Seq, errors.New("unknown message type "+m.Type))
	}
}

// profile is the registered worker's profile on the region server this
// connection registered it on; ok is false for a connection with no worker.
func (c *conn) profile() (*profile.Profile, bool) {
	if c.worker == "" {
		return nil, false
	}
	return c.cs.Workers().Get(c.worker)
}

func closeAll(subs []*event.Subscription) {
	for _, sub := range subs {
		sub.Close()
	}
}

func (c *conn) teardown() {
	s := c.srv
	c.evMu.Lock()
	closeAll(c.evSubs) // unblocks the event forwarder goroutines
	c.evSubs = nil
	c.evMu.Unlock()
	s.mu.Lock()
	delete(s.watchers, c)
	delete(s.conns, c)
	closed := s.closed
	s.mu.Unlock()
	if c.worker != "" && !closed {
		// A vanished worker's held task goes back to the pool; the profile
		// survives the disconnect so a later register reconnects with its
		// learned history intact. Detach before the socket closes: a peer
		// that observes the close (and, say, reconnects under the same id)
		// may rely on the detach having happened.
		c.cs.DetachWorker(c.worker)
	}
	// Flush-on-close before the socket drops: a reply enqueued just before
	// the peer's EOF (deregister, a final stats answer) still reaches a
	// peer that is shutting down write-first. The final flush is bounded,
	// so a wedged peer cannot stall teardown.
	c.w.close()
	c.c.Close()
}

// ErrClosed is returned by client operations after Close.
var ErrClosed = errors.New("wire: connection closed")

var _ io.Closer = (*Server)(nil)
