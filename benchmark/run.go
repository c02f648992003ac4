package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"react/internal/core"
	"react/internal/journal"
	"react/internal/matching"
	"react/internal/wire"
)

// params is one invocation: which workload, which seed, how long, and
// whether the taps are on.
type params struct {
	wl      workload
	seed    int64
	window  time.Duration
	warmup  time.Duration
	traced  bool
	scratch string // where the run's journals live while it runs
	outDir  string // where a traced run writes its spans
}

// Submission verdicts, as the requester sees them.
const (
	stNone int32 = iota
	stAdmitted
	stRejectedRate
	stRejectedProb
	stQueueFull
	stFailed
)

// Task outcomes, as the result push reports them.
const (
	outNone int32 = iota
	outOnTime
	outLate
	outExpired
)

// taskRec is the client-side ledger row of one task. All instants are
// offsets from the run's epoch. due/sent/replied/status belong to the
// generator goroutine and are read only after it has been joined; the
// rest is written by worker and collector goroutines and is atomic.
type taskRec struct {
	due, sent, replied time.Duration
	status             int32

	firstAssign atomic.Int64 // first assignment frame read by a worker's client
	resultAt    atomic.Int64 // result frame read by the requester
	outcome     atomic.Int32
}

// run is the state of one workload execution.
type run struct {
	p     params
	st    *stack
	epoch time.Time
	end   time.Duration // generation stops here (warm-up + window)

	stream *taskStream
	tasks  []taskRec
	sentN  atomic.Int64 // tasks handed to Submit so far

	settledTo int // drain loop's cursor: every task before it is resolved

	quality map[string]float64 // worker id → §V.C feedback probability

	// Generator time accounting (its goroutine only; read after it is
	// joined): what it spent parked and what it spent inside Submit. The
	// rest of the run it was computing, and if that is most of the run
	// the generator, not the server, was the bottleneck.
	genIdle, genRPC time.Duration

	tokens   chan struct{} // closed loop: one per free slot
	grades   chan grade
	graded   atomic.Int64
	toGrade  atomic.Int64
	stopping atomic.Bool

	pending sync.Map // *execTimer → struct{}: exec delays not yet fired
	timers  sync.WaitGroup
	wg      sync.WaitGroup

	// Operation tallies. An outcome such as a deadline miss is not a
	// failure; a violated invariant, transport error, timeout or
	// unexpected error code is.
	attempted      atomic.Int64
	failed         atomic.Int64
	staleCompletes atomic.Int64
	failMu         sync.Mutex
	failNotes      []string

	tr *tracer // nil unless traced
}

type grade struct {
	task   int
	worker string
	met    bool
}

func (r *run) since() time.Duration { return wall.Now().Sub(r.epoch) }

// fail records one failed operation (the first few with their reason).
func (r *run) fail(format string, args ...any) {
	r.failed.Add(1)
	r.failMu.Lock()
	defer r.failMu.Unlock()
	if len(r.failNotes) < 20 {
		r.failNotes = append(r.failNotes, fmt.Sprintf(format, args...))
	}
}

// lookup resolves a pushed task id to its ledger row.
func (r *run) lookup(id string) (int, *taskRec) {
	i, ok := taskIndex(id)
	if !ok || int64(i) >= r.sentN.Load() || !strings.HasPrefix(id, r.stream.prefix) {
		return 0, nil
	}
	return i, &r.tasks[i]
}

// workerLoop is one crowd member. On each assignment it draws the exec
// time and arms a timer that completes the task when it fires — without
// blocking this loop, so a worker revoked by Eq. 2 while "delaying" takes
// its next assignment immediately (DESIGN.md modelling decision 3);
// loadgen's sleep-in-loop worker would queue it behind the phantom one.
func (r *run) workerLoop(spec workerSpec, cl *wire.Client) {
	defer r.wg.Done()
	draws := spec.draws(r.p.wl)
	for a := range cl.Assignments() {
		now := r.since()
		i, rec := r.lookup(a.TaskID)
		if rec == nil {
			r.fail("assignment for unknown task %q", a.TaskID)
			continue
		}
		rec.firstAssign.CompareAndSwap(0, int64(now))
		exec := draws.next()
		if r.tr != nil {
			r.tr.assigned(spec.ID, i, now, exec, time.Duration(a.DeadlineMS)*time.Millisecond)
		}
		if exec <= 0 {
			r.complete(cl, spec.ID, a.TaskID)
			continue
		}
		r.timers.Add(1)
		h := new(execTimer)
		//lint:ignore clockdiscipline the fixture's exec delay is real waiting by definition; every timestamp is read through clock.System
		h.t = time.AfterFunc(exec, func() {
			defer r.timers.Done()
			r.pending.Delete(h)
			r.complete(cl, spec.ID, a.TaskID)
		})
		r.pending.Store(h, struct{}{})
	}
}

// execTimer is the handle of one armed exec delay. The callback knows it
// only by address, so it never reads the timer field the arming goroutine
// is still writing.
type execTimer struct{ t *time.Timer }

// complete reports the worker's answer. A task revoked meanwhile (Eq. 2,
// then possibly finished by someone else) refuses the completion; that is
// expected traffic, not a failure.
func (r *run) complete(cl *wire.Client, worker, taskID string) {
	if r.stopping.Load() {
		return
	}
	fired := r.since()
	err := cl.Complete(taskID, worker, "answer")
	done := r.since()
	r.attempted.Add(1)
	var se *wire.ServerError
	switch {
	case err == nil:
	case errors.As(err, &se) && staleComplete(se):
		r.staleCompletes.Add(1)
	case r.stopping.Load():
		return // connection closed under the call on the way down
	default:
		r.fail("complete %s by %s: %v", taskID, worker, err)
	}
	if r.tr != nil {
		r.tr.completed(fired, done, err == nil)
	}
}

// staleComplete recognizes the server's two refusals of a completion for
// a binding that was taken back: the engine's holder check, and — when
// the revocation lands between that check and the mutation — the task
// store's state check. Neither has a wire code.
func staleComplete(se *wire.ServerError) bool {
	return strings.Contains(se.Error(), "not assigned to this worker") ||
		strings.Contains(se.Error(), "operation invalid in current status")
}

// stopTimers cancels exec timers still pending (phantom work of revoked
// workers) and waits for callbacks already running.
func (r *run) stopTimers() {
	r.stopping.Store(true)
	r.pending.Range(func(k, _ any) bool {
		if k.(*execTimer).t.Stop() {
			r.timers.Done()
		}
		return true
	})
	r.timers.Wait()
}

// submitOne offers task i, due at the given offset, and classifies the
// verdict.
func (r *run) submitOne(i int, p wire.TaskPayload, due time.Duration) int32 {
	rec := &r.tasks[i]
	rec.due = due
	r.sentN.Store(int64(i + 1))
	rec.sent = r.since()
	_, err := r.st.submit.SubmitAdmit(p)
	rec.replied = r.since()
	r.genRPC += rec.replied - rec.sent
	r.attempted.Add(1)
	var se *wire.ServerError
	switch {
	case err == nil:
		rec.status = stAdmitted
	case errors.As(err, &se) && se.Code == wire.CodeRejectedRate:
		rec.status = stRejectedRate
	case errors.As(err, &se) && se.Code == wire.CodeRejectedProbability:
		rec.status = stRejectedProb
	case errors.As(err, &se) && se.Code == wire.CodeQueueFull:
		rec.status = stQueueFull
	default:
		rec.status = stFailed
		r.fail("submit %s: %v", p.ID, err)
	}
	return rec.status
}

// openLoop offers each task at its absolute due time, whatever the server
// does. A stall delays later sends, and they are still timed from when
// they were due (loadgen.RunOverload sleeps a fixed gap after each send,
// which drifts).
func (r *run) openLoop(due []time.Duration) {
	defer r.wg.Done()
	for i, at := range due {
		p := r.stream.next()
		if now := r.since(); at > now {
			wall.Sleep(at - now)
			r.genIdle += r.since() - now
		}
		r.submitOne(i, p, at)
	}
}

// closedLoop keeps Outstanding tasks in flight: the next submit goes out
// when a result (or a refusal) frees a slot.
func (r *run) closedLoop() {
	defer r.wg.Done()
	for i := 0; i < len(r.tasks); i++ {
		parked := r.since()
		<-r.tokens
		now := r.since()
		r.genIdle += now - parked
		if now >= r.end {
			return
		}
		if r.submitOne(i, r.stream.next(), now) != stAdmitted {
			r.tokens <- struct{}{} // no result will come for a refused task
		}
	}
	r.fail("closed loop exhausted its %d-task ledger", len(r.tasks))
}

// collect reads result pushes, settles the ledger, frees closed-loop
// slots and hands completed tasks to the grader.
func (r *run) collect() {
	defer r.wg.Done()
	defer close(r.grades)
	for res := range r.st.watch.Results() {
		now := r.since()
		i, rec := r.lookup(res.TaskID)
		if rec == nil {
			r.fail("result for unknown task %q", res.TaskID)
			continue
		}
		if !rec.resultAt.CompareAndSwap(0, int64(now)) {
			r.fail("duplicate result for %s", res.TaskID)
			continue
		}
		switch {
		case res.Expired:
			rec.outcome.Store(outExpired)
		case res.MetDeadline:
			rec.outcome.Store(outOnTime)
		default:
			rec.outcome.Store(outLate)
		}
		if r.tokens != nil {
			r.tokens <- struct{}{}
		}
		if !res.Expired {
			r.toGrade.Add(1)
			r.grades <- grade{task: i, worker: res.WorkerID, met: res.MetDeadline}
		}
	}
}

// grader sends the requester's verdict on each completed task: positive
// only if on time, and then with the worker's own quality as probability
// (§V.C). It is the third RPC every served task costs.
func (r *run) grader() {
	defer r.wg.Done()
	rng := rand.New(rand.NewSource(subSeed(r.p.seed, streamGrades)))
	for g := range r.grades {
		positive := g.met && rng.Float64() < r.quality[g.worker]
		err := r.st.watch.Feedback(r.stream.taskID(g.task), positive)
		r.attempted.Add(1)
		if err != nil && !r.stopping.Load() {
			r.fail("feedback %s: %v", r.stream.taskID(g.task), err)
		}
		r.graded.Add(1)
	}
}

// serverCounters is one reading of everything the server counts.
type serverCounters struct {
	at      time.Duration
	cpu     time.Duration
	core    core.Stats
	shed    int64 // engine's count of tasks the shedder evicted
	journal journal.Stats
	wire    wire.ServerMetrics
	adm     [4]int64 // admitted, rejectedProbability, rejectedRate, shed
}

func (r *run) readCounters() (serverCounters, error) {
	cpu, err := cpuTime()
	if err != nil {
		return serverCounters{}, err
	}
	c := serverCounters{at: r.since(), cpu: cpu}
	cs := r.st.srv.Core()
	c.core = cs.Stats()
	c.shed = cs.Engine().Stats().Shed
	c.journal = r.st.store.Stats()
	c.wire = r.st.srv.Metrics()
	c.adm[0], c.adm[1], c.adm[2], c.adm[3] = cs.Admission().Counters()
	return c, nil
}

// result is what one run reports.
type result struct {
	metrics   []metric
	attempted int64
	failed    int64
	valid     bool
	notes     []string
}

type metric struct {
	name  string
	unit  string
	value float64
	n     int // observations behind a latency figure (0: not a sample)
}

// ledgerSize bounds how many tasks a run can offer. Untouched rows cost
// no resident memory.
const ledgerSize = 1 << 20

// execute runs one workload: set-up, warm-up, measured window, drain,
// checks.
func execute(p params) (res result, err error) {
	root, err := scratchDir(p.scratch, p.wl.Name)
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(root)

	specs := crowdSpecs(p.wl, p.seed)
	var m matching.Matcher = matching.REACT{Adaptive: true}
	var tr *tracer
	if p.traced {
		tr = newTracer()
		m = tr.wrap(m)
	}
	st, setups, err := measureSetup(root, p.wl, specs, m)
	if err != nil {
		return result{}, err
	}
	closed := false
	defer func() {
		if !closed {
			st.close()
		}
	}()

	r := &run{
		p:       p,
		st:      st,
		end:     p.warmup + p.window,
		stream:  newTaskStream(p.wl, p.seed),
		quality: make(map[string]float64, len(specs)),
		tr:      tr,
	}
	for _, s := range specs {
		r.quality[s.ID] = s.Behavior.Quality
	}
	var due []time.Duration
	if p.wl.Shape == closedLoop {
		r.tasks = make([]taskRec, ledgerSize)
		// One token per slot, plus room for every refusal to hand its own back.
		r.tokens = make(chan struct{}, p.wl.Outstanding+1)
		for i := 0; i < p.wl.Outstanding; i++ {
			r.tokens <- struct{}{}
		}
	} else {
		due = arrivals(p.wl, p.seed, r.end)
		r.tasks = make([]taskRec, len(due))
	}
	// Room for every task at once, so the collector never blocks on the
	// grader.
	r.grades = make(chan grade, len(r.tasks))
	r.epoch = wall.Now()
	if tr != nil {
		tr.attach(r)
	}
	r.wg.Add(len(specs) + 2)
	for i, spec := range specs {
		go r.workerLoop(spec, st.workers[i])
	}
	go r.collect()
	go r.grader()
	var gen sync.WaitGroup
	gen.Add(1)
	r.wg.Add(1)
	go func() {
		defer gen.Done()
		if p.wl.Shape == closedLoop {
			r.closedLoop()
		} else {
			r.openLoop(due)
		}
	}()

	// Warm-up, then the window between two counter readings. A traced
	// window has a third reading a quarter in: up to there the taps stay
	// gated off, and that part's goodput against the rest's is the
	// tracing overhead.
	bounds := []time.Duration{p.warmup, r.end}
	if tr != nil {
		bounds = []time.Duration{p.warmup, p.warmup + p.window/4, r.end}
	}
	marks := make([]serverCounters, len(bounds))
	for k, at := range bounds {
		wall.Sleep(at - r.since())
		if marks[k], err = r.readCounters(); err != nil {
			return result{}, err
		}
		marks[k].at = at // tasks belong to the window by their nominal due time
		if tr != nil && k == 1 {
			tr.on.Store(true)
		}
	}
	if r.tokens != nil {
		// Wake a generator parked on an empty token channel; it sees the
		// window is over and returns.
		select {
		case r.tokens <- struct{}{}:
		default:
		}
	}
	gen.Wait()

	// Drain: every admitted task reaches a result and every grade is sent.
	offered := int(r.sentN.Load())
	deadline := r.since() + drainCap
	for r.since() < deadline && !r.settled(offered) {
		wall.Sleep(5 * time.Millisecond)
	}
	final, err := r.readCounters()
	if err != nil {
		return result{}, err
	}
	if tr != nil {
		// The taps stayed on through the drain so that every traced task's
		// timeline is whole.
		tr.on.Store(false)
	}

	// Layer probes that need the live server run before it goes away.
	var layers []metric
	if tr != nil {
		layers = tr.liveProbes(r)
	}

	r.stopTimers()
	st.closeClients()
	r.wg.Wait()
	st.close()
	closed = true
	if err := st.store.Err(); err != nil {
		r.fail("journal: %v", err)
	}

	res.valid = true
	r.check(offered, final, &res)
	if tr != nil {
		res.metrics = append(layers, tr.report(r, root, offered, marks[0], marks[1], marks[2], &res)...)
	} else {
		res.metrics = r.endToEnd(offered, setups, marks[0], marks[1], &res)
	}
	res.attempted = r.attempted.Load()
	res.failed = r.failed.Load()
	res.notes = append(res.notes, r.failNotes...)
	return res, nil
}

// settled reports whether every admitted task has its result and every
// grade has been sent. It resumes from the first task it last found open.
func (r *run) settled(offered int) bool {
	for ; r.settledTo < offered; r.settledTo++ {
		rec := &r.tasks[r.settledTo]
		if rec.status == stAdmitted && rec.resultAt.Load() == 0 {
			return false
		}
	}
	return r.graded.Load() == r.toGrade.Load()
}

// onTimeBetween counts on-time results read in [from, to).
func (r *run) onTimeBetween(offered int, from, to time.Duration) int {
	n := 0
	for i := 0; i < offered; i++ {
		rec := &r.tasks[i]
		if at := time.Duration(rec.resultAt.Load()); at >= from && at < to && rec.outcome.Load() == outOnTime {
			n++
		}
	}
	return n
}

// check is the output checker every run carries: conservation of the
// offered load, one result per admitted task and none otherwise, and the
// client's tallies against the server's own counters. Each violation is
// a failed operation.
func (r *run) check(offered int, final serverCounters, res *result) {
	var admitted, rejRate, rejProb, queueFull int64
	var onTime, late, expired, unresolved int64
	for i := 0; i < offered; i++ {
		rec := &r.tasks[i]
		out := rec.outcome.Load()
		switch rec.status {
		case stAdmitted:
			admitted++
			switch out {
			case outOnTime:
				onTime++
			case outLate:
				late++
			case outExpired:
				expired++
			default:
				unresolved++
			}
			continue
		case stRejectedRate:
			rejRate++
		case stRejectedProb:
			rejProb++
		case stQueueFull:
			queueFull++
		}
		if out != outNone {
			r.fail("task %d was refused (%d) yet has a result", i, rec.status)
		}
	}
	expect := func(what string, got, want int64) {
		if got != want {
			r.fail("checker: %s = %d, want %d", what, got, want)
		}
	}
	// Client side: every offered task was admitted or refused (a submit
	// that did neither already counted as failed), and every admitted one
	// has its result.
	expect("unresolved after drain", unresolved, 0)
	// Server side: its counters conserve, and agree with the client's.
	expect("server received - completed - expired", final.core.Received-final.core.Completed-final.core.Expired, 0)
	expect("server received", final.core.Received, admitted)
	expect("server completed", final.core.Completed, onTime+late)
	expect("server on-time", final.core.OnTime, onTime)
	expect("server expired (incl. shed)", final.core.Expired, expired)
	// The engine's hard ceiling refuses after admission has already
	// counted the task in.
	expect("admission admitted", final.adm[0], admitted+queueFull)
	expect("admission rejected_probability", final.adm[1], rejProb)
	expect("admission rejected_rate", final.adm[2], rejRate)
	expect("admission shed", final.adm[3], final.shed)
	if final.journal.Failed {
		r.fail("checker: journal reports a sticky I/O failure")
	}
	if final.wire.BadFrames != 0 {
		r.fail("checker: server saw %d bad frames", final.wire.BadFrames)
	}
	for _, cl := range append([]*wire.Client{r.st.submit, r.st.watch}, r.st.workers...) {
		if m := cl.Metrics(); m.MismatchedResponses != 0 || m.OverflowClosed {
			r.fail("checker: client wire health: %+v", m)
		}
	}
	res.notes = append(res.notes, fmt.Sprintf(
		"offered=%d admitted=%d rejected_rate=%d rejected_probability=%d queue_full=%d on_time=%d late=%d expired=%d (shed=%d) stale_completes=%d",
		offered, admitted, rejRate, rejProb, queueFull, onTime, late, expired, final.shed, r.staleCompletes.Load()))
}

// Generator health limits: a window is reported only if the load that
// was meant to be offered was offered.
const (
	maxGenSelfLateP99 = 150 * time.Millisecond
	maxGenBusy        = 0.5
)

// generatorHealth marks the window invalid when the generator itself
// failed to offer the load on schedule. A send is late against its due
// time for two reasons: the previous Submit had not returned yet — the
// server's doing, which timing every task from its due time already
// charges to the server — or the generator woke late or was busy, which
// is its own. Only the second (sent − max(due, previous reply)) can
// invalidate a window; both are reported.
func (r *run) generatorHealth(offered int, from, to time.Duration, res *result) {
	if r.p.wl.Shape != closedLoop {
		var late, self sample
		for i := 0; i < offered; i++ {
			rec := &r.tasks[i]
			if rec.due < from || rec.due >= to {
				continue
			}
			free := rec.due
			if i > 0 {
				free = max(free, r.tasks[i-1].replied)
			}
			late = append(late, ms(rec.sent-rec.due))
			self = append(self, ms(rec.sent-free))
		}
		late, self = late.sorted(), self.sorted()
		res.notes = append(res.notes, fmt.Sprintf("gen_late_p50_ms=%.3f gen_late_p99_ms=%.3f gen_self_late_p99_ms=%.3f (n=%d)",
			late.quantile(0.50), late.quantile(0.99), self.quantile(0.99), len(late)))
		if p99 := self.quantile(0.99); p99 > ms(maxGenSelfLateP99) {
			res.valid = false
			res.notes = append(res.notes, fmt.Sprintf("INVALID: the generator itself ran late: p99 %.1f ms exceeds %v", p99, maxGenSelfLateP99))
		}
	}
	busy := 1 - (r.genIdle+r.genRPC).Seconds()/r.end.Seconds()
	res.notes = append(res.notes, fmt.Sprintf("gen_busy_frac=%.4f gen_in_submit_frac=%.4f", busy, r.genRPC.Seconds()/r.end.Seconds()))
	if busy > maxGenBusy {
		res.valid = false
		res.notes = append(res.notes, fmt.Sprintf("INVALID: the generator was busy %.0f%% of the run; it, not the server, bounded the load", 100*busy))
	}
}

// endToEnd computes the metrics a user of the system would see, over the
// tasks due inside the window; goodput counts on-time results by when
// they were read.
func (r *run) endToEnd(offered int, setups sample, before, after serverCounters, res *result) []metric {
	from, to := before.at, after.at
	var e2e sample
	var inWindow, onTime int
	for i := 0; i < offered; i++ {
		rec := &r.tasks[i]
		if rec.due < from || rec.due >= to {
			continue
		}
		inWindow++
		switch rec.outcome.Load() {
		case outOnTime:
			onTime++
			fallthrough
		case outLate:
			e2e = append(e2e, ms(time.Duration(rec.resultAt.Load())-rec.due))
		}
	}
	e2e = e2e.sorted()
	rss, err := peakRSSMB()
	if err != nil {
		r.fail("peak rss: %v", err)
	}
	_, setupMedian, _ := quartiles(setups)
	span := (to - from).Seconds()
	out := []metric{
		{name: "setup_s", unit: "s", value: setupMedian, n: len(setups)},
		{name: "ontime_frac", unit: "ratio", value: float64(onTime) / float64(max(inWindow, 1)), n: inWindow},
		{name: "goodput_tps", unit: "tasks/s", value: float64(r.onTimeBetween(offered, from, to)) / span},
		{name: "e2e_p50_ms", unit: "ms", value: e2e.quantile(0.50), n: len(e2e)},
		{name: "peak_rss_mb", unit: "MB", value: rss},
	}

	r.generatorHealth(offered, from, to, res)
	res.notes = append(res.notes, fmt.Sprintf("set-ups (s): %.4f", []float64(setups)))
	res.notes = append(res.notes, fmt.Sprintf("window=%.0fs tasks_offered_in_window=%d cpu_util=%.2f of %d procs",
		span, inWindow, (after.cpu-before.cpu).Seconds()/span, procs()))
	return out
}
