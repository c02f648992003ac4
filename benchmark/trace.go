package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"react/internal/bipartite"
	"react/internal/event"
	"react/internal/matching"
	"react/internal/taskq"
)

// traceDir is where a traced run leaves its spans.
const traceDir = "benchmark/out"

// maxSpanTasks caps how many tasks' spans reach the file; the metrics
// use every traced task.
const maxSpanTasks = 20000

// tracer is the traced run's recorder. Every layer is observed from
// outside — client-side timestamps around each wire.Client call and frame
// arrival, a synchronous tap on the event spine (same process, same
// clock), a timing wrapper around the injected matcher, the wire server's
// flush observer — and everything is kept in memory until the window is
// over. Spans inside the program are a later issue.
//
// The taps are installed before traffic starts, because a spine tap
// cannot be removed, and gated by on: the first quarter of the window
// runs with them off so the same run yields the tracing overhead.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu     sync.Mutex // the tap runs under a shard lock: append and leave
	events []spineEvent

	roundMu sync.Mutex
	rounds  []round
	graphs  []sampledGraph

	fixMu     sync.Mutex
	assigns   []assignRec
	completes []completeRec

	flushes, flushFrames, flushNanos atomic.Int64

	popMu  sync.Mutex
	pops   []population
	stopCh chan struct{}
	popWG  sync.WaitGroup
}

// spineEvent is what the tap copies out of an event.Event.
type spineEvent struct {
	Seq    uint64
	Kind   event.Kind
	Task   string
	Worker string
	At     time.Duration
	Cause  string
	Batch  *event.BatchStats
}

// round is one matcher invocation as the wrapper timed it.
type round struct {
	start, elapsed time.Duration
	edges          int
}

// sampledGraph keeps a round's graph (immutable once built) and the
// weight REACT reached on it, so Greedy can be run on it afterwards.
type sampledGraph struct {
	g      *bipartite.Graph
	weight float64
}

// assignRec is one assignment frame as a worker's client read it, with
// the exec time the fixture drew for it.
type assignRec struct {
	worker string
	task   int
	at     time.Duration
	exec   time.Duration
	left   time.Duration // time to deadline the frame carried
}

// completeRec is one Complete call as the fixture timed it.
type completeRec struct {
	fired, done time.Duration
	ok          bool
}

// population is one sample of the task store's depths.
type population struct{ unassigned, assigned, terminal int }

func newTracer() *tracer { return &tracer{stopCh: make(chan struct{})} }

// timedMatcher brackets the production matcher's Match.
type timedMatcher struct {
	matching.Matcher
	t *tracer
}

func (t *tracer) wrap(m matching.Matcher) matching.Matcher { return timedMatcher{m, t} }

// graphSampleStride and maxGraphSamples bound the graphs kept for the
// REACT÷Greedy weight comparison.
const (
	graphSampleStride = 8
	maxGraphSamples   = 48
)

func (m timedMatcher) Match(g *bipartite.Graph) (*bipartite.Matching, matching.Stats) {
	if !m.t.on.Load() {
		return m.Matcher.Match(g)
	}
	start := wall.Now()
	match, st := m.Matcher.Match(g)
	elapsed := wall.Now().Sub(start)
	t := m.t
	t.roundMu.Lock()
	defer t.roundMu.Unlock()
	t.rounds = append(t.rounds, round{start: start.Sub(t.epoch), elapsed: elapsed, edges: g.NumEdges()})
	if len(t.rounds)%graphSampleStride == 0 && len(t.graphs) < maxGraphSamples && g.NumEdges() > 0 {
		t.graphs = append(t.graphs, sampledGraph{g: g, weight: match.Weight()})
	}
	return match, st
}

// attach installs the observers on a freshly set-up stack, before traffic.
func (t *tracer) attach(r *run) {
	t.epoch = r.epoch
	cs := r.st.srv.Core()
	cs.Events().Tap(t.tap)
	r.st.srv.SetFlushObserver(func(frames, _ int, seconds float64) {
		if t.on.Load() {
			t.flushes.Add(1)
			t.flushFrames.Add(int64(frames))
			t.flushNanos.Add(int64(seconds * 1e9))
		}
	})
	t.popWG.Add(1)
	go func() {
		defer t.popWG.Done()
		for {
			select {
			case <-t.stopCh:
				return
			default:
			}
			wall.Sleep(50 * time.Millisecond)
			if !t.on.Load() {
				continue
			}
			u, a, c, e := cs.Tasks().Counts()
			t.popMu.Lock()
			t.pops = append(t.pops, population{u, a, c + e})
			t.popMu.Unlock()
		}
	}()
}

func (t *tracer) tap(ev event.Event) {
	if !t.on.Load() {
		return
	}
	se := spineEvent{Seq: ev.Seq, Kind: ev.Kind, Task: ev.Task, Worker: ev.Worker,
		At: ev.At.Sub(t.epoch), Cause: ev.Cause, Batch: ev.Batch}
	t.mu.Lock()
	t.events = append(t.events, se)
	t.mu.Unlock()
}

func (t *tracer) assigned(worker string, task int, at, exec, left time.Duration) {
	if !t.on.Load() {
		return
	}
	t.fixMu.Lock()
	t.assigns = append(t.assigns, assignRec{worker, task, at, exec, left})
	t.fixMu.Unlock()
}

func (t *tracer) completed(fired, done time.Duration, ok bool) {
	if !t.on.Load() {
		return
	}
	t.fixMu.Lock()
	t.completes = append(t.completes, completeRec{fired, done, ok})
	t.fixMu.Unlock()
}

// timeline is one traced task: its spine events in the order the tap saw
// them, joined with what the fixture saw.
type timeline struct {
	events  []spineEvent
	assigns []assignRec // as read by workers' clients, in order
}

// stageSpan is one stage of a task's life. The stages of a completed
// task tile the interval from the instant it was due to the instant its
// result was read; their names are the budget's rows.
type stageSpan struct {
	name       string
	start, end time.Duration
}

func (s stageSpan) dur() time.Duration { return max(s.end-s.start, 0) }

// Budget rows, in the order a task passes through them.
var stageNames = []string{
	"gen_wait",          // due → Submit called (generator lateness)
	"submit_rpc",        // Submit called → spine submit
	"queue_wait",        // spine submit → first spine assign
	"held_then_revoked", // spine assign → spine revoke (phantom work)
	"reassign_wait",     // spine revoke → next spine assign
	"deliver",           // last spine assign → frame read by the worker
	"worker_exec",       // the fixture's own drawn delay
	"complete_rpc",      // delay elapsed → spine complete (timer lateness + RPC in)
	"result_push",       // spine complete → result frame read
}

// timelines groups the recorded events by task, keeping only tasks whose
// submit the tap saw (those submitted while the taps were on), and checks
// the spine's per-task contract: Seq strictly increasing in the order the
// tap observed the events, a legal state sequence, and exactly one
// terminal event for every task that has its result.
func (t *tracer) timelines(r *run) map[int]*timeline {
	byTask := map[int]*timeline{}
	for _, ev := range t.events {
		if !ev.Kind.Lifecycle() {
			continue
		}
		i, rec := r.lookup(ev.Task)
		if rec == nil {
			r.fail("spine event for unknown task %q", ev.Task)
			continue
		}
		tl := byTask[i]
		if tl == nil {
			if ev.Kind != event.KindSubmit {
				continue // submitted before the taps went on
			}
			tl = &timeline{}
			byTask[i] = tl
		}
		tl.events = append(tl.events, ev)
	}
	for _, a := range t.assigns {
		if tl := byTask[a.task]; tl != nil {
			tl.assigns = append(tl.assigns, a)
		}
	}
	for i, tl := range byTask {
		state, terminals := taskq.Status(-1), 0
		var lastSeq uint64
		for _, ev := range tl.events {
			if ev.Seq <= lastSeq {
				r.fail("task %d: spine Seq %d after %d", i, ev.Seq, lastSeq)
			}
			lastSeq = ev.Seq
			legal := false
			switch ev.Kind {
			case event.KindSubmit:
				legal, state = state == -1, taskq.Unassigned
			case event.KindAssign:
				legal, state = state == taskq.Unassigned, taskq.Assigned
			case event.KindRevoke:
				legal, state = state == taskq.Assigned, taskq.Unassigned
			case event.KindComplete:
				legal, state = state == taskq.Assigned, taskq.Completed
				terminals++
			case event.KindExpire:
				legal, state = state == taskq.Unassigned || state == taskq.Assigned, taskq.Expired
				terminals++
			case event.KindForget:
				legal = state == taskq.Completed || state == taskq.Expired
			}
			if !legal {
				r.fail("task %d: illegal spine transition to %v", i, ev.Kind)
			}
		}
		if r.tasks[i].resultAt.Load() != 0 && terminals != 1 {
			r.fail("task %d: %d terminal spine events, want exactly 1", i, terminals)
		}
	}
	return byTask
}

// spans splits one completed task's end-to-end time into stages. ok is
// false when the task did not complete or a needed observation is missing.
func (tl *timeline) spans(rec *taskRec) (sp []stageSpan, e2e time.Duration, ok bool) {
	if out := rec.outcome.Load(); out != outOnTime && out != outLate {
		return nil, 0, false
	}
	sp = append(sp, stageSpan{"gen_wait", rec.due, rec.sent})
	var at, completeAt time.Duration // at: the previous spine event's instant
	var worker string
	assigned := 0
	for _, ev := range tl.events {
		switch ev.Kind {
		case event.KindSubmit:
			sp = append(sp, stageSpan{"submit_rpc", rec.sent, ev.At})
		case event.KindAssign:
			name := "queue_wait"
			if assigned > 0 {
				name = "reassign_wait"
			}
			sp = append(sp, stageSpan{name, at, ev.At})
			assigned++
			worker = ev.Worker
		case event.KindRevoke:
			sp = append(sp, stageSpan{"held_then_revoked", at, ev.At})
		case event.KindComplete:
			completeAt = ev.At
		default:
			continue
		}
		at = ev.At
	}
	if assigned == 0 || completeAt == 0 || len(tl.assigns) == 0 {
		return nil, 0, false
	}
	last := tl.assigns[len(tl.assigns)-1]
	if last.worker != worker {
		return nil, 0, false
	}
	// at is completeAt now; the last assign's instant is the end of the
	// last queue/reassign wait.
	assignAt := sp[len(sp)-1].end
	resultAt := time.Duration(rec.resultAt.Load())
	sp = append(sp,
		stageSpan{"deliver", assignAt, last.at},
		stageSpan{"worker_exec", last.at, last.at + last.exec},
		stageSpan{"complete_rpc", last.at + last.exec, completeAt},
		stageSpan{"result_push", completeAt, resultAt})
	return sp, resultAt - rec.due, true
}

// report turns the recordings into the per-layer metrics, runs the direct
// layer probes, and writes the spans.
func (t *tracer) report(r *run, root string, offered int, before, mid, after serverCounters, res *result) []metric {
	close(t.stopCh)
	t.popWG.Wait()
	var out []metric
	add := func(name, unit string, v float64) { out = append(out, metric{name: name, unit: unit, value: v}) }
	addN := func(name, unit string, v float64, n int) {
		out = append(out, metric{name: name, unit: unit, value: v, n: n})
	}
	byTask := t.timelines(r)
	traced := float64(len(byTask))
	span := (after.at - mid.at).Seconds()

	// --- wire: client-side RPC brackets, spine→client deliveries, counters.
	var submitRPC, completeRPC, deliver, resultPush sample
	var queueWait, reassignWait, execs, gaps sample
	stageSum := map[string]time.Duration{}
	budgeted := 0
	var onTime float64
	for i, tl := range byTask {
		rec := &r.tasks[i]
		submitRPC = append(submitRPC, us(rec.replied-rec.sent))
		if rec.outcome.Load() == outOnTime {
			onTime++
		}
		// Pair each spine assign with the frame the worker read, in order.
		ai := 0
		var submitAt, lastRevoke time.Duration
		first := true
		for _, ev := range tl.events {
			switch ev.Kind {
			case event.KindSubmit:
				submitAt = ev.At
			case event.KindAssign:
				if first {
					queueWait = append(queueWait, ms(ev.At-submitAt))
					first = false
				} else {
					reassignWait = append(reassignWait, ms(ev.At-lastRevoke))
				}
				if ai < len(tl.assigns) && tl.assigns[ai].worker == ev.Worker {
					deliver = append(deliver, us(tl.assigns[ai].at-ev.At))
					ai++
				}
			case event.KindRevoke:
				lastRevoke = ev.At
			case event.KindComplete:
				if at := time.Duration(rec.resultAt.Load()); at > 0 {
					resultPush = append(resultPush, us(at-ev.At))
				}
			}
		}
		if sp, e2e, ok := tl.spans(rec); ok && e2e > 0 {
			budgeted++
			var sum time.Duration
			for _, st := range sp {
				sum += st.dur()
				stageSum[st.name] += st.dur()
				if st.name == "worker_exec" {
					execs = append(execs, ms(st.dur()))
				}
			}
			gaps = append(gaps, float64((sum-e2e).Abs())/float64(e2e))
		}
	}
	for _, c := range t.completes {
		if c.ok {
			completeRPC = append(completeRPC, us(c.done-c.fired))
		}
	}
	submitRPC, completeRPC, deliver, resultPush = submitRPC.sorted(), completeRPC.sorted(), deliver.sorted(), resultPush.sorted()
	queueWait, reassignWait = queueWait.sorted(), reassignWait.sorted()

	addN("wire.submit_rpc_p50_us", "us", submitRPC.quantile(0.5), len(submitRPC))
	addN("wire.submit_rpc_p99_us", "us", submitRPC.quantile(0.99), len(submitRPC))
	addN("wire.complete_rpc_p50_us", "us", completeRPC.quantile(0.5), len(completeRPC))
	addN("wire.deliver_p50_us", "us", deliver.quantile(0.5), len(deliver))
	addN("wire.deliver_p99_us", "us", deliver.quantile(0.99), len(deliver))
	addN("wire.result_push_p50_us", "us", resultPush.quantile(0.5), len(resultPush))
	// Counter growth over the traced part of the window.
	grew := func(f func(serverCounters) int64) float64 { return float64(f(after) - f(mid)) }
	add("wire.frames_per_task", "count", ratio(grew(func(c serverCounters) int64 { return c.wire.FramesRead + c.wire.FramesWritten }), traced))
	add("wire.bytes_per_task", "B", ratio(grew(func(c serverCounters) int64 { return c.wire.BytesWritten }), traced))
	add("wire.frames_per_flush", "count", ratio(float64(t.flushFrames.Load()), float64(t.flushes.Load())))
	add("wire.flush_mean_us", "us", ratio(float64(t.flushNanos.Load())/1e3, float64(t.flushes.Load())))
	add("wire.bad_frames", "count", grew(func(c serverCounters) int64 { return c.wire.BadFrames }))
	add("wire.errors_sent", "count", grew(func(c serverCounters) int64 { return c.wire.ErrorsSent }))

	// --- admission: decision counters over the traced part of the window.
	add("admission.admitted", "count", grew(func(c serverCounters) int64 { return c.adm[0] }))
	add("admission.rejected_probability", "count", grew(func(c serverCounters) int64 { return c.adm[1] }))
	add("admission.rejected_rate", "count", grew(func(c serverCounters) int64 { return c.adm[2] }))
	add("admission.shed", "count", grew(func(c serverCounters) int64 { return c.adm[3] }))
	add("admission.useful_frac", "ratio", ratio(onTime, traced))

	// --- engine, schedule, matching, dynassign: from the spine.
	var batches, bTasks, bWorkers, bEdges, bPruned, bPairs, bCycles, bAssign, bCeil float64
	var lifecycle, assignsSeen, eq2, detach, undeliverable float64
	for _, ev := range t.events {
		switch {
		case ev.Kind == event.KindBatch && ev.Batch != nil:
			b := ev.Batch
			batches++
			bTasks += float64(b.Tasks)
			bWorkers += float64(b.Workers)
			bEdges += float64(b.Edges)
			bPruned += float64(b.PrunedProb)
			bPairs += float64(b.Tasks) * float64(b.Workers)
			bCycles += float64(b.Cycles)
			bAssign += float64(b.Assignments)
			bCeil += float64(min(b.Tasks, b.Workers))
		case ev.Kind.Lifecycle():
			lifecycle++
			switch {
			case ev.Kind == event.KindAssign:
				assignsSeen++
			case ev.Kind == event.KindRevoke && ev.Cause == taskq.CauseEq2:
				eq2++
			case ev.Kind == event.KindRevoke && ev.Cause == taskq.CauseDetach:
				detach++
			case ev.Kind == event.KindRevoke && ev.Cause == taskq.CauseUndeliverable:
				undeliverable++
			}
		}
	}
	addN("engine.queue_wait_p50_ms", "ms", queueWait.quantile(0.5), len(queueWait))
	addN("engine.queue_wait_p99_ms", "ms", queueWait.quantile(0.99), len(queueWait))
	addN("engine.reassign_wait_p50_ms", "ms", orZero(reassignWait.quantile(0.5)), len(reassignWait))
	add("engine.batches", "count", batches)
	add("engine.batch_tasks_mean", "count", ratio(bTasks, batches))
	add("engine.batch_workers_mean", "count", ratio(bWorkers, batches))
	add("engine.assign_yield", "ratio", ratio(bAssign, bCeil))
	add("engine.undeliverable", "count", undeliverable)
	add("engine.reassigned_eq2", "count", eq2)
	add("engine.reassigned_detach", "count", detach)
	add("schedule.edges_per_batch", "count", ratio(bEdges, batches))
	add("schedule.pruned_frac", "ratio", ratio(bPruned, bPairs))
	var matchNanos, matchEdges float64
	for _, rd := range t.rounds {
		matchNanos += float64(rd.elapsed)
		matchEdges += float64(rd.edges)
	}
	add("matching.match_us_per_batch", "us", ratio(matchNanos/1e3, float64(len(t.rounds))))
	add("matching.match_ns_per_edge", "ns", ratio(matchNanos, matchEdges))
	add("matching.cycles_per_batch", "count", ratio(bCycles, batches))
	add("dynassign.revoked_frac", "ratio", ratio(eq2, assignsSeen))
	add("dynassign.useful_revoke_frac", "ratio", t.usefulRevokes(byTask))
	add("event.per_task", "count", ratio(lifecycle, traced))
	add("event.dropped", "count", float64(r.st.srv.Core().Events().Stats().Dropped))

	// --- journal: the store's own counters over the traced part.
	jr := grew(func(c serverCounters) int64 { return c.journal.Records })
	fs := grew(func(c serverCounters) int64 { return c.journal.Fsyncs })
	add("journal.records_per_task", "count", ratio(jr, traced))
	add("journal.bytes_per_task", "B", ratio(grew(func(c serverCounters) int64 { return c.journal.Bytes }), traced))
	add("journal.fsyncs", "count", fs)
	add("journal.fsync_mean_ms", "ms", ratio(grew(func(c serverCounters) int64 { return c.journal.FsyncNanos })/1e6, fs))
	add("journal.compactions", "count", grew(func(c serverCounters) int64 { return c.journal.Compactions }))
	failedJournal := 0.0
	if after.journal.Failed {
		failedJournal = 1
	}
	add("journal.failed", "count", failedJournal)

	// --- taskq: the populations the scans walk.
	var pop population
	for _, p := range t.pops {
		pop.unassigned += p.unassigned
		pop.assigned += p.assigned
		pop.terminal += p.terminal
	}
	if n := len(t.pops); n > 0 {
		pop = population{pop.unassigned / n, pop.assigned / n, pop.terminal / n}
	}
	add("taskq.records_retained", "count", float64(pop.unassigned+pop.assigned+pop.terminal))
	hw := 0
	for _, sh := range r.st.srv.Core().Tasks().ShardStats() {
		hw += sh.UnassignedHighWater
	}
	add("taskq.unassigned_highwater", "count", float64(hw))

	// --- the latency and cost figures that proved too noisy on this
	// class of machine to carry an end-to-end bound (README, "Demoted").
	var sched, e2e sample
	due := 0
	for i := 0; i < offered; i++ {
		rec := &r.tasks[i]
		if rec.due < mid.at || rec.due >= after.at {
			continue
		}
		due++
		if fa := time.Duration(rec.firstAssign.Load()); fa > 0 {
			sched = append(sched, ms(fa-rec.due))
		}
		if out := rec.outcome.Load(); out == outOnTime || out == outLate {
			e2e = append(e2e, ms(time.Duration(rec.resultAt.Load())-rec.due))
		}
	}
	sched, e2e = sched.sorted(), e2e.sorted()
	addN("trace.sched_p50_ms", "ms", sched.quantile(0.5), len(sched))
	addN("trace.sched_p99_ms", "ms", sched.quantile(0.99), len(sched))
	addN("trace.e2e_mean_ms", "ms", e2e.mean(), len(e2e))
	addN("trace.e2e_p99_ms", "ms", e2e.quantile(0.99), len(e2e))
	for name, s := range map[string]sample{"trace.sched_p99_ms": sched, "trace.e2e_p99_ms": e2e} {
		if s.beyond(0.99) < minBeyond {
			res.valid = false
			res.notes = append(res.notes, fmt.Sprintf("INVALID: %s has only %d samples beyond it (n=%d)", name, s.beyond(0.99), len(s)))
		}
	}
	add("trace.cpu_ms_per_task", "ms", ratio(ms(after.cpu-mid.cpu), float64(due)))
	r.generatorHealth(offered, mid.at, after.at, res)

	// --- budget: the stages of a completed task must add up to what the
	// requester saw.
	add("worker.exec_mean_ms", "ms", orZero(execs.mean()))
	gapMean := orZero(gaps.mean())
	addN("trace.budget_gap_frac", "ratio", gapMean, budgeted)
	if gapMean >= 0.05 {
		r.fail("trace: stage spans miss the end-to-end time by %.1f%% (must be under 5%%)", 100*gapMean)
	}
	// Timely throughput with the taps gated off (first quarter of the
	// window) against with them on (the rest).
	offTP := ratio(float64(r.onTimeBetween(offered, before.at, mid.at)), (mid.at - before.at).Seconds())
	onTP := ratio(float64(r.onTimeBetween(offered, mid.at, after.at)), span)
	add("trace.overhead_frac", "ratio", 1-ratio(onTP, offTP))
	// The same comparison in processor time per offered task, which also
	// means something on the open-loop workloads, where goodput follows
	// the offered rate, not the server's speed.
	offCPU := ratio(ms(mid.cpu-before.cpu), float64(r.dueBetween(offered, before.at, mid.at)))
	onCPU := ratio(ms(after.cpu-mid.cpu), float64(due))
	add("trace.cpu_overhead_frac", "ratio", ratio(onCPU, offCPU)-1)
	if budgeted > 0 {
		note := "mean budget of a completed task (ms):"
		for _, name := range stageNames {
			note += fmt.Sprintf(" %s=%.3f", name, ms(stageSum[name])/float64(budgeted))
		}
		res.notes = append(res.notes, note)
	}
	res.notes = append(res.notes, fmt.Sprintf("traced %d tasks over %.2fs (taps off for the first %.2fs of the window); journal on %s",
		len(byTask), span, (mid.at-before.at).Seconds(), fsType(root)))

	shape := probeShape{
		workers: max(int(ratio(bWorkers, batches)+0.5), 1),
		tasks:   max(int(ratio(bTasks, batches)+0.5), 1),
		pop:     pop,
	}
	out = append(out, t.probes(r, root, shape)...)

	if err := t.writeSpans(r, byTask); err != nil {
		r.fail("write spans: %v", err)
	}
	return out
}

func orZero(v float64) float64 {
	if v != v { // NaN: the sample was empty
		return 0
	}
	return v
}

// dueBetween counts the tasks due in [from, to).
func (r *run) dueBetween(offered int, from, to time.Duration) int {
	n := 0
	for i := 0; i < offered; i++ {
		if due := r.tasks[i].due; due >= from && due < to {
			n++
		}
	}
	return n
}

// usefulRevokes is the share of Eq. 2 revocations whose worker would
// indeed have missed the deadline — which the fixture knows, because it
// drew the exec time itself.
func (t *tracer) usefulRevokes(byTask map[int]*timeline) float64 {
	var revokes, useful float64
	for _, tl := range byTask {
		ai := -1
		for _, ev := range tl.events {
			switch {
			case ev.Kind == event.KindAssign:
				ai++
			case ev.Kind == event.KindRevoke && ev.Cause == taskq.CauseEq2:
				if ai < 0 || ai >= len(tl.assigns) || tl.assigns[ai].worker != ev.Worker {
					continue
				}
				revokes++
				if a := tl.assigns[ai]; a.exec > a.left {
					useful++
				}
			}
		}
	}
	return ratio(useful, revokes)
}

// span is one line of the trace file.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	Parent string  `json:"parent,omitempty"`
	Task   string  `json:"task,omitempty"`
}

// writeSpans writes the completed tasks' stage spans, each a child of its
// task's root span, as JSON lines.
func (t *tracer) writeSpans(r *run, byTask map[int]*timeline) (err error) {
	if err := os.MkdirAll(r.p.outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(r.p.outDir, "trace-"+r.p.wl.Name+".jsonl"))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	written := 0
	for i, tl := range byTask {
		if written >= maxSpanTasks {
			break
		}
		rec := &r.tasks[i]
		sp, e2e, ok := tl.spans(rec)
		if !ok {
			continue
		}
		written++
		id := r.stream.taskID(i)
		if err := enc.Encode(span{Name: "task", Start: ms(rec.due), End: ms(rec.due + e2e), Task: id}); err != nil {
			return err
		}
		for _, st := range sp {
			if err := enc.Encode(span{Name: st.name, Start: ms(st.start), End: ms(st.end), Parent: "task", Task: id}); err != nil {
				return err
			}
		}
	}
	for _, rd := range t.rounds {
		if err := enc.Encode(span{Name: "matching.match", Start: ms(rd.start), End: ms(rd.start + rd.elapsed)}); err != nil {
			return err
		}
	}
	return w.Flush()
}
