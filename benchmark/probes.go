package main

import (
	"path/filepath"
	"strconv"
	"time"

	"react/internal/admission"
	"react/internal/bipartite"
	"react/internal/engine"
	"react/internal/event"
	"react/internal/journal"
	"react/internal/matching"
	"react/internal/region"
	"react/internal/schedule"
	"react/internal/taskq"
	"react/internal/wire"
)

// The probes time direct calls into each layer's exported functions, on
// inputs shaped like what the traced run saw: the mean batch shape, the
// mean retained population, the live registry's warmed profiles. They run
// after the server has stopped, so nothing else competes for the
// processor.

// probeShape is what the traced run observed.
type probeShape struct {
	workers, tasks int        // mean scheduling round
	pop            population // mean task-store depths
}

// timeOp returns fn's mean duration over n calls.
func timeOp(n int, fn func()) time.Duration {
	start := wall.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return wall.Now().Sub(start) / time.Duration(max(n, 1))
}

// probeTask is a task as the server materializes one: deadline in the
// compressed §V.C band from now.
func probeTask(i int, now time.Time) taskq.Task {
	return taskq.Task{
		ID:       "probe-" + strconv.Itoa(i),
		Location: region.Point{Lat: 38, Lon: 23.7},
		Deadline: now.Add(600*time.Millisecond + time.Duration(i%7)*100*time.Millisecond),
		Reward:   0.05,
		Category: "traffic",
	}
}

// liveProbes is the one probe that needs the running server: a journal
// compaction at the size the run grew the log to.
func (t *tracer) liveProbes(r *run) []metric {
	start := wall.Now()
	if err := r.st.store.Compact(); err != nil {
		r.fail("journal compact: %v", err)
	}
	return []metric{{name: "journal.compact_ms", unit: "ms", value: ms(wall.Now().Sub(start))}}
}

func (t *tracer) probes(r *run, root string, shape probeShape) []metric {
	var out []metric
	add := func(name, unit string, v float64) { out = append(out, metric{name: name, unit: unit, value: v}) }
	cs := r.st.srv.Core()
	opts := serverOptions(r.p.wl, matching.REACT{Adaptive: true})
	now := wall.Now()

	// schedule / powerlaw / bipartite: one round's graph over the live
	// registry's profiles.
	profiles := cs.Workers().All()
	profiles = profiles[:min(shape.workers, len(profiles))]
	tasks := make([]taskq.Task, shape.tasks)
	for i := range tasks {
		tasks[i] = probeTask(i, now)
	}
	pairs := float64(max(len(profiles)*len(tasks), 1))
	reps := min(max(int(2e6/pairs), 3), 200)
	build := timeOp(reps, func() { schedule.BuildGraph(opts.Schedule, profiles, tasks, now) })
	add("schedule.build_us_per_batch", "us", us(build))
	add("schedule.build_ns_per_pair", "ns", float64(build)/pairs)
	var sink float64
	prob := timeOp(2000, func() {
		for _, p := range profiles {
			if m, ok := p.Model(opts.Schedule.MinHistory); ok {
				sink += m.ProbMeetDeadline(0.9)
			}
		}
	})
	add("powerlaw.prob_ns", "ns", float64(prob)/float64(max(len(profiles), 1)))
	addEdge := timeOp(reps, func() {
		b := bipartite.NewBuilder(len(profiles), len(tasks))
		for _, p := range profiles {
			_, _ = b.AddWorker(p.ID()) // ids are distinct
		}
		for _, tk := range tasks {
			_, _ = b.AddTask(tk.ID)
		}
		for w := range profiles {
			for tk := range tasks {
				_ = b.AddEdgeIdx(int32(w), int32(tk), 0.5) // indices are in range
			}
		}
		sink += float64(b.Build().NumEdges())
	})
	add("bipartite.add_edge_ns", "ns", float64(addEdge)/pairs)

	// matching: REACT against Greedy on graphs sampled from live rounds.
	var reactW, greedyW float64
	for _, sg := range t.graphs {
		m, _ := matching.Greedy{}.Match(sg.g)
		reactW += sg.weight
		greedyW += m.Weight()
	}
	add("matching.weight_ratio", "ratio", ratio(reactW, greedyW))

	// dynassign: one Eq. 2 sweep over the mean assigned population, bound
	// to live profiles.
	all := cs.Workers().All()
	held := make(assignedSet, 0, shape.pop.assigned)
	for i := 0; i < max(shape.pop.assigned, 1) && len(all) > 0; i++ {
		held = append(held, taskq.Record{
			Task:       probeTask(i, now),
			Status:     taskq.Assigned,
			Worker:     all[i%len(all)].ID(),
			AssignedAt: now.Add(-50 * time.Millisecond),
		})
	}
	sweep := timeOp(200, func() { sink += float64(len(opts.Monitor.Sweep(cs.Workers(), held, now))) })
	add("dynassign.sweep_us", "us", us(sweep))

	// taskq: point mutations while filling a store to the observed
	// population, then the scans every tick walks.
	store := engine.NewTaskStore(wall, opts.Shards)
	total := shape.pop.unassigned + shape.pop.assigned + shape.pop.terminal
	filled := make([]taskq.Task, max(total, 1))
	far := wall.Now().Add(time.Hour) // nothing expires while the probes run
	for i := range filled {
		filled[i] = probeTask(i, now)
		filled[i].Deadline = far
	}
	i := 0
	add("taskq.submit_ns", "ns", float64(timeOp(len(filled), func() { _ = store.Submit(filled[i]); i++ })))
	bound := shape.pop.assigned + shape.pop.terminal
	i = 0
	add("taskq.assign_ns", "ns", float64(timeOp(bound, func() { _ = store.Assign(filled[i].ID, "w000"); i++ })))
	i = 0
	add("taskq.complete_ns", "ns", float64(timeOp(shape.pop.terminal, func() { _, _ = store.Complete(filled[i].ID); i++ })))
	scans := max(min(int(2e6/float64(len(filled))), 500), 5)
	past := wall.Now().Add(-time.Hour)
	add("taskq.unassigned_scan_us", "us", us(timeOp(scans, func() { sink += float64(len(store.Unassigned())) })))
	add("taskq.expire_scan_us", "us", us(timeOp(scans, func() { sink += float64(len(store.ExpireUnassigned())) })))
	add("taskq.forget_scan_us", "us", us(timeOp(scans, func() { sink += float64(store.ForgetTerminatedBefore(past)) })))
	add("taskq.assigned_scan_us", "us", us(timeOp(scans, func() { sink += float64(len(store.AssignedTasks())) })))

	// admission: the warmed controller's Decide, and one shedder tick over
	// the store above.
	adm := cs.Admission()
	decide := probeTask(0, now)
	add("admission.decide_ns", "ns", float64(timeOp(20000, func() {
		decide.Deadline = wall.Now().Add(800 * time.Millisecond)
		if adm.Decide("probe", decide).Admitted() {
			sink++
		}
	})))
	add("admission.tick_shed_us", "us", us(timeOp(scans, func() { sink += float64(adm.TickShed(shedPool{store})) })))

	// engine: one Tick with no round due, over the same population held by
	// a whole engine (retention GC, expiry scan, trigger check).
	eng := engine.New(engine.Config{
		Matcher: opts.Matcher, Schedule: opts.Schedule, Monitor: opts.Monitor,
		Shards: opts.Shards, Retention: time.Hour,
	}, engine.Hooks{})
	for j := range filled[:bound] {
		tk := filled[j]
		if err := eng.Submit(tk); err != nil {
			r.fail("probe engine submit: %v", err)
			break
		}
		_ = eng.Tasks().Assign(tk.ID, "w000")
		if j < shape.pop.terminal {
			_, _ = eng.Tasks().Complete(tk.ID)
		}
	}
	add("engine.tick_us", "us", us(timeOp(scans, eng.Tick)))

	// event: Publish with the production fan-out — the journal's and the
	// admission plane's taps, and the expiry pump's filtered subscription.
	bus := event.NewBus()
	bus.Tap(admission.New(admission.Config{}).Tap)
	bus.Tap(func(ev event.Event) {
		if rec, ok := journal.FromEvent(ev); ok && rec.Task != nil {
			sink++
		}
	})
	sub := bus.Subscribe(1024, func(ev event.Event) bool { return ev.Kind == event.KindExpire })
	ev := event.Event{Kind: event.KindAssign, Task: filled[0].ID, Worker: "w000", At: now,
		Record: taskq.Record{Task: filled[0], Status: taskq.Assigned, Worker: "w000", AssignedAt: now, Attempts: 1}}
	add("event.publish_ns", "ns", float64(timeOp(200000, func() { bus.Publish(ev) })))
	sub.Close()

	// journal: Append (buffering only; the group commit is the flusher's),
	// then the read side — recovering the directory the run wrote.
	scratch, err := journal.Open(journal.Options{Dir: filepath.Join(root, "probe-journal"), FsyncInterval: fsyncInterval, Logf: quiet.Printf})
	if err != nil {
		r.fail("probe journal: %v", err)
	} else {
		rec, _ := journal.FromEvent(ev)
		add("journal.append_ns", "ns", float64(timeOp(50000, func() { _ = scratch.Append(rec) })))
		if err := scratch.Close(); err != nil {
			r.fail("probe journal close: %v", err)
		}
	}
	start := wall.Now()
	rstore, rsrv, err := openServer(r.st.dir, r.p.wl, opts.Matcher)
	recovered := wall.Now().Sub(start)
	if err != nil {
		r.fail("recover: %v", err)
	} else {
		add("journal.recover_ms", "ms", ms(recovered))
		_ = rsrv.Close()
		if err := rstore.Err(); err != nil {
			r.fail("recovered journal: %v", err)
		}
	}

	// wire: encoding one assignment frame.
	msg := wire.Message{Type: "assignment", Assignment: &wire.AssignmentPayload{
		TaskID: filled[0].ID, WorkerID: "w000", Category: "traffic", Description: "traffic request",
		Lat: 38, Lon: 23.7, DeadlineMS: 800, Reward: 0.05}}
	var buf []byte
	add("wire.encode_ns", "ns", float64(timeOp(200000, func() { buf = wire.AppendFrame(buf[:0], &msg) })))

	if sink < 0 { // keeps the probed calls' results alive
		r.fail("probe sink went negative: %v", sink)
	}
	return out
}

// assignedSet is a fixed executing-task snapshot for the Eq. 2 sweep.
type assignedSet []taskq.Record

func (s assignedSet) AssignedTasks() []taskq.Record { return s }

// shedPool lets the shedder scan a store without evicting from it, so
// every timed tick sees the same population.
type shedPool struct{ store *engine.TaskStore }

func (p shedPool) Unassigned() []taskq.Task { return p.store.Unassigned() }
func (shedPool) Shed(string) error          { return nil }
