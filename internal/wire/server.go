package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"react/internal/admission"
	"react/internal/engine"
	"react/internal/event"
	"react/internal/journal"
	"react/internal/profile"
	"react/internal/region"
	"react/internal/taskq"
)

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
// behind drops frames (counted on the bus) rather than blocking the task
// store's lock under which events are published.
const eventWatchDepth = 1024

// expiryPumpDepth bounds one region's expiry-push backlog. A tick that
// expires more tasks than this while the pump is behind drops the overflow
// (counted on the bus) instead of blocking the engine; requesters
// reconcile through the task-status query.
const expiryPumpDepth = 1024

// idStripes is the number of per-task-id locks that make a submit's
// cross-region duplicate check and the submit itself one step.
const idStripes = 64

// eng lets Region embed the engine under an unexported field name, so the
// engine's methods are promoted while Region.Engine still names it.
type eng = engine.Engine

// Region is one running region: its id ("all" for the lone region of
// Serve/ServeDurable, the grid cell id under ServeGrid) and the REACT
// engine that schedules it, whose methods it promotes.
type Region struct {
	ID string
	*eng

	// routes maps each registered worker id to the connection that
	// registered it (*conn): where deliver writes the worker's assignments.
	routes sync.Map
	// expiries feeds the region's expiry pump; Close closes it.
	expiries *event.Subscription
}

// Engine is the region's scheduling engine.
func (r *Region) Engine() *engine.Engine { return r.eng }

// deliver is the region engine's Deliver hook: it encodes the assignment
// and queues it on the worker's connection. The enqueue is memory-only —
// the connection's flusher writes the socket — so a scheduling round never
// blocks on a peer. A worker with no route (its connection is gone or
// going) or whose connection has failed refuses the delivery, and the
// engine revokes the binding.
func (r *Region) deliver(rec taskq.Record) bool {
	c, ok := r.routes.Load(rec.Worker)
	if !ok {
		return false
	}
	fb := encodeFrame(&Message{Type: "assignment", Assignment: toAssignmentPayload(rec, time.Now())})
	err := c.(*conn).w.enqueue(fb.b, false)
	fb.release()
	return err == nil
}

// register routes worker id to c, then attaches it: the first round that
// finds the worker available also finds its connection. A returning worker
// (journal-recovered, or one whose old connection is gone) re-attaches
// under its id and keeps its learned history; a second session while
// another connection still routes the id is refused.
func (r *Region) register(id string, loc region.Point, c *conn) error {
	if _, live := r.routes.LoadOrStore(id, c); live {
		return fmt.Errorf("wire: worker %q already connected", id)
	}
	if _, err := r.AttachWorker(id, loc); err != nil {
		r.routes.Delete(id)
		return err
	}
	return nil
}

// Server exposes REACT regions over TCP.
type Server struct {
	ln net.Listener

	// cfg configures every region's engine. grid is nil for the lone
	// region of Serve/ServeDurable, which lone names; under ServeGrid,
	// regions start on first use and onStart (may be nil) sees each one
	// before its engine starts.
	cfg     engine.Config
	grid    *region.Grid
	onStart func(*Region)
	lone    *Region

	// store, when set, is closed by Close once every engine has stopped.
	store *journal.Store

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

	// ids serialise submits of the same task id (striped by FNV-1a).
	ids [idStripes]sync.Mutex

	mu       sync.Mutex
	regions  map[string]*Region
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
	region *Region       // the region worker registered on, which routes it here
	srv    *Server

	evMu   sync.Mutex
	evSubs []*event.Subscription // non-empty after watch-events
}

// ServeDurable serves one region, "all", on addr (e.g. "127.0.0.1:7341" or
// ":0" for an ephemeral port): its engine is built from cfg and started.
// With a store it adds crash recovery: journal.Resume bulk-loads the
// store's recovered state into the fresh engine before it starts, every
// subsequent mutation is write-ahead journaled, and Close closes the store
// after the last connection drains and the engine stops. The returned
// summary says what was recovered, for startup logs. A nil store serves
// without persistence.
//
// The store must come straight from journal.Open — its recovered state is
// consumed here. On error the store is left open: the caller owns closing
// it.
func ServeDurable(addr string, cfg engine.Config, store *journal.Store) (*Server, journal.Summary, error) {
	var sum journal.Summary
	r := newRegion("all", cfg)
	if store != nil {
		var err error
		if sum, err = journal.Resume(store, r.Engine()); err != nil {
			return nil, sum, err
		}
	}
	s, err := listen(addr, cfg)
	if err != nil {
		return nil, sum, err
	}
	s.lone, s.store = r, store
	s.startRegion(r)
	s.accept()
	return s, sum, nil
}

// Serve is ServeDurable without a journal.
func Serve(addr string, cfg engine.Config) (*Server, error) {
	s, _, err := ServeDurable(addr, cfg, nil)
	return s, err
}

// ServeGrid serves one region per cell of grid on addr — §III.A's
// decomposition: each region's engine matches only the tasks and workers
// located inside it, which "reduces the size of the matching problem
// without affecting the output". A region starts the first time a
// register or submit locates into its cell, from cfg; onStart, when
// non-nil, sees it before its engine starts (per-region observability).
// onStart runs under the lock that starts regions, so it must not call
// back into the Server.
func ServeGrid(addr string, grid *region.Grid, cfg engine.Config, onStart func(*Region)) (*Server, error) {
	s, err := listen(addr, cfg)
	if err != nil {
		return nil, err
	}
	s.grid, s.onStart = grid, onStart
	s.accept()
	return s, nil
}

// listen opens the listener of a Server that has no region yet.
func listen(addr string, cfg engine.Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		ln:       ln,
		cfg:      cfg,
		regions:  make(map[string]*Region),
		watchers: make(map[*conn]struct{}),
		conns:    make(map[*conn]struct{}),
	}
	s.idle.Store(int64(DefaultIdleTimeout))
	return s, nil
}

// accept starts serving connections.
func (s *Server) accept() {
	s.wg.Add(1)
	go s.acceptLoop()
}

// newRegion builds a region whose engine delivers straight into its
// registered workers' connections. Anything that must precede the first
// tick — journal recovery, per-region observability — goes between this
// and startRegion.
func newRegion(id string, cfg engine.Config) *Region {
	r := &Region{ID: id}
	r.eng = engine.New(cfg, engine.Hooks{Deliver: r.deliver})
	return r
}

// startRegion opens r's expiry pump, which pushes a result frame to every
// watcher for each expiry, starts its engine's live loops, and lists it.
// Callers hold s.mu, or run before accept.
func (s *Server) startRegion(r *Region) {
	r.expiries = r.Events().Subscribe(expiryPumpDepth, func(ev event.Event) bool {
		return ev.Kind == event.KindExpire
	})
	s.wg.Add(1)
	go s.expiryPump(r.expiries)
	r.Start()
	s.regions[r.ID] = r
}

// expiryPump pushes a result frame to every watcher for each expiry on one
// region, off the engine's tick goroutine; it ends when Close closes sub.
func (s *Server) expiryPump(sub *event.Subscription) {
	defer s.wg.Done()
	for ev := range sub.C() {
		s.broadcast(Message{Type: "result", Result: &ResultPayload{TaskID: ev.Task, Expired: true}})
	}
}

// Addr reports the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// SetIdleTimeout changes the per-connection read deadline (default
// DefaultIdleTimeout). Zero or negative disables it. Existing connections
// adopt the new value at their next frame.
func (s *Server) SetIdleTimeout(d time.Duration) { s.idle.Store(int64(d)) }

// Core is the lone region of Serve/ServeDurable; nil under ServeGrid.
func (s *Server) Core() *Region { return s.lone }

// Regions lists the running regions, sorted by region id.
func (s *Server) Regions() []*Region {
	s.mu.Lock()
	out := make([]*Region, 0, len(s.regions))
	for _, r := range s.regions {
		out = append(out, r)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Stats sums the counters of every running region.
func (s *Server) Stats() StatsPayload {
	var total StatsPayload
	for _, r := range s.Regions() {
		total.add(r)
	}
	return total
}

// at resolves a location's region: the lone one, or under ServeGrid the
// location's grid cell, started on first use. ErrClosed after Close.
func (s *Server) at(loc region.Point) (*Region, error) {
	if s.lone != nil {
		return s.lone, nil
	}
	id := s.grid.Locate(loc)
	s.mu.Lock()
	r, ok := s.regions[id]
	closed := s.closed
	s.mu.Unlock()
	switch {
	case closed:
		return nil, ErrClosed
	case ok:
		return r, nil
	}
	// Build outside the lock; of two first lookups racing, the one that
	// lists its region first wins, and the other's engine, never started,
	// is dropped.
	fresh := newRegion(id, s.cfg)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if r, ok := s.regions[id]; ok {
		return r, nil
	}
	if s.onStart != nil {
		s.onStart(fresh)
	}
	s.startRegion(fresh)
	return fresh, nil
}

// holder resolves the region holding a task. The lone region answers for
// every task, known or not; under ServeGrid it is the running region whose
// store holds the task, and ok is false when none does (never submitted,
// or forgotten past its region's retention window).
func (s *Server) holder(taskID string) (r *Region, ok bool) {
	if s.lone != nil {
		return s.lone, true
	}
	for _, r := range s.Regions() {
		if _, ok := r.Tasks().Get(taskID); ok {
			return r, true
		}
	}
	return nil, false
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

// ofTask resolves the region holding a task. A task no region holds
// answers what the lone region answers.
func (s *Server) ofTask(taskID string) (*Region, error) {
	if r, ok := s.holder(taskID); ok {
		return r, nil
	}
	return nil, fmt.Errorf("%w: %q", taskq.ErrUnknownTask, taskID)
}

// Close stops accepting, drops every connection and expiry pump, stops
// every region's engine, and only then closes the journal store, so its
// final group commit captures every mutation the engines made on the way
// down (flush-before-shutdown ordering). It is idempotent.
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
	// The region set is final: at starts none once closed.
	regions := s.Regions()
	for _, r := range regions {
		r.expiries.Close() // ends that region's expiry pump
	}
	s.wg.Wait()
	for _, r := range regions {
		r.Stop()
	}
	if s.store != nil {
		s.store.Close()
	}
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

// errCode maps a region's error to its stable wire code ("" for errors
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
		r, err := s.at(loc)
		if err == nil {
			err = r.register(m.Worker, loc, c)
		}
		if err == nil {
			c.worker, c.region = m.Worker, r
		}
		c.reply(m.Seq, err)

	case "deregister":
		if c.worker == "" {
			c.reply(m.Seq, errors.New("deregister: connection has no registered worker"))
			return
		}
		worker, r := c.worker, c.region
		c.worker, c.region = "", nil // teardown must not deregister twice
		// Unroute, then deregister: see teardown.
		r.routes.Delete(worker)
		c.reply(m.Seq, r.DeregisterWorker(worker))

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
		r, err := s.at(t.Location)
		if err != nil {
			c.reply(m.Seq, err)
			return
		}
		// Task ids are unique across a grid's regions as they are in a lone
		// region: a second submit of an id another region still holds is a
		// duplicate (same-region duplicates are the task store's own check).
		// The id's stripe lock makes the check and the submit one step, so
		// two first submits racing into different regions cannot both land.
		idMu := s.idLock(t.ID)
		idMu.Lock()
		if owner, ok := s.holder(t.ID); ok && owner != r {
			idMu.Unlock()
			c.reply(m.Seq, fmt.Errorf("%w: %q", taskq.ErrDuplicateTask, t.ID))
			return
		}
		// With an admission plane the reply carries the verdict: ok frames
		// the probability, error frames the typed status plus a retry-after
		// hint. With admission off the Admission field simply never
		// appears, which is what keeps old clients working.
		d, err := r.SubmitFrom(c.requester(), t)
		idMu.Unlock()
		reply := Message{Type: "ok", Seq: m.Seq}
		if err != nil {
			c.srv.errorsSent.Add(1)
			reply = Message{Type: "error", Seq: m.Seq, Error: err.Error(), Code: errCode(err)}
		}
		if r.Admission() != nil && (err == nil || !d.Admitted()) {
			reply.Admission = toAdmissionPayload(d)
		}
		c.send(reply)

	case "complete":
		if m.TaskID == "" || m.Worker == "" {
			c.reply(m.Seq, errors.New("complete: missing task or worker id"))
			return
		}
		r, err := s.ofTask(m.TaskID)
		if err == nil {
			var final taskq.Record
			if final, err = r.Complete(m.TaskID, m.Worker); err == nil {
				// Watchers hear the answer before the worker hears ok.
				s.broadcast(Message{Type: "result", Result: toResultPayload(final, m.Answer)})
			}
		}
		c.reply(m.Seq, err)

	case "feedback":
		if m.TaskID == "" || m.Positive == nil {
			c.reply(m.Seq, errors.New("feedback: missing task id or verdict"))
			return
		}
		r, err := s.ofTask(m.TaskID)
		if err == nil {
			err = r.Feedback(m.TaskID, *m.Positive)
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
		if r, ok := s.holder(m.TaskID); ok {
			if rec, ok := r.Tasks().Get(m.TaskID); ok {
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
		sources := s.Regions()
		if taskID == "" {
			if len(sources) != 1 {
				c.reply(m.Seq, fmt.Errorf("watch-events: an unscoped stream needs exactly one running region, have %d; pass a task id", len(sources)))
				return
			}
		} else if r, ok := s.holder(taskID); ok {
			sources = []*Region{r}
		}
		filter := func(ev event.Event) bool {
			if !ev.Kind.Lifecycle() {
				return false
			}
			return taskID == "" || ev.Task == taskID
		}
		subs := make([]*event.Subscription, len(sources))
		for i, r := range sources {
			subs[i] = r.Events().Subscribe(eventWatchDepth, filter)
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
		rs := s.Regions()
		regions := make([]RegionStatsPayload, len(rs))
		for i, r := range rs {
			regions[i].Region = r.ID
			regions[i].Stats.add(r)
		}
		c.send(Message{Type: "ok", Seq: m.Seq, Regions: regions})

	case "ping":
		// Keepalive: refreshes the server's idle deadline, lets clients
		// detect dead connections through NATs, and lets operators probe
		// liveness with netcat.
		c.reply(m.Seq, nil)

	case "stats":
		st := s.Stats()
		c.send(Message{Type: "ok", Seq: m.Seq, Stats: &st})

	default:
		c.reply(m.Seq, errors.New("unknown message type "+m.Type))
	}
}

// profile is the registered worker's profile on the region this
// connection registered it on; ok is false for a connection with no worker.
func (c *conn) profile() (*profile.Profile, bool) {
	if c.worker == "" {
		return nil, false
	}
	return c.region.Workers().Get(c.worker)
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
		// learned history intact. Unroute, then detach: a round that binds
		// the worker after the route is gone is refused at delivery and
		// revoked, and one that bound it before has set the busy mark
		// DetachWorker releases — either way no task stays assigned to a
		// worker with no connection. Both happen before the socket closes:
		// a peer that observes the close (and, say, reconnects under the
		// same id) may rely on the detach having happened.
		c.region.routes.Delete(c.worker)
		c.region.DetachWorker(c.worker)
	}
	// Flush-on-close before the socket drops: a reply enqueued just before
	// the peer's EOF (deregister, a final stats answer) still reaches a
	// peer that is shutting down write-first. The final flush is bounded,
	// so a wedged peer cannot stall teardown.
	c.w.close()
	c.c.Close()
}

// ErrClosed is returned by client operations after Close, and by a server
// asked to start a region after its Close.
var ErrClosed = errors.New("wire: connection closed")

var _ io.Closer = (*Server)(nil)
