// Collectors bridge the running system into the metrics.Registry: engine
// counters (the ledger's, including the per-cause revocation split) become
// counter families read at scrape time, the task store's depths become
// labelled gauges, and the engine's event spine feeds the round-shape
// histograms no polling snapshot could reconstruct.
package obs

import (
	"react/internal/admission"
	"react/internal/engine"
	"react/internal/event"
	"react/internal/metrics"
	"react/internal/taskq"
	"react/internal/wire"
)

// matcherHistogramWidth/Buckets shape the matcher wall-time histogram:
// 1 ms buckets up to 250 ms, overflow beyond. The paper's matchers run in
// tens of milliseconds at batch-bound scale; a round in the overflow
// bucket is itself the signal (queue collapse, §V.C).
const (
	matcherHistogramWidth   = 0.001
	matcherHistogramBuckets = 250
)

// batchSizeHistogramWidth/Buckets shape the per-round task-count
// histogram: width 8 up to 1024 tasks.
const (
	batchSizeHistogramWidth   = 8
	batchSizeHistogramBuckets = 128
)

// Flush instrument shapes: frames-per-flush counts 1..256 with overflow
// beyond (a broadcast storm coalescing hundreds of frames into one write
// is exactly what the overflow bucket should show), and flush latency uses
// 0.5 ms buckets up to 100 ms — a healthy localhost write sits in the
// first bucket; anything near the overflow is a wedged peer.
const (
	framesPerFlushHistogramWidth   = 1
	framesPerFlushHistogramBuckets = 256

	flushLatencyHistogramWidth   = 0.0005
	flushLatencyHistogramBuckets = 200
)

// EngineCollector observes one scheduling engine through its event
// spine: call Attach once the engine exists (it installs HandleEvent as
// a bus tap), then Register to expose the instruments.
//
// HandleEvent is safe for concurrent use and never blocks: it ignores
// lifecycle events (the engine's ledger counts those; Register reads it),
// and the mutex-guarded histograms are touched only by batch summaries,
// which publish outside every engine lock.
type EngineCollector struct {
	matcherElapsed *metrics.Histogram // measured matcher wall time per round (s)
	matcherModel   *metrics.Histogram // modelled latency charged via Config.Latency (s)
	batchTasks     *metrics.Histogram // unassigned tasks per round
	batchWorkers   *metrics.Welford   // available workers per round
	batchEdges     *metrics.Welford   // Eq. 3 edges instantiated per round
	prunedProb     metrics.Counter    // edges dropped by the probability bound
}

// NewEngineCollector creates a collector with empty instruments.
func NewEngineCollector() *EngineCollector {
	me, err := metrics.NewHistogram(matcherHistogramWidth, matcherHistogramBuckets)
	if err != nil {
		panic(err) // constants above are valid by construction
	}
	mm, err := metrics.NewHistogram(matcherHistogramWidth, matcherHistogramBuckets)
	if err != nil {
		panic(err)
	}
	bt, err := metrics.NewHistogram(batchSizeHistogramWidth, batchSizeHistogramBuckets)
	if err != nil {
		panic(err)
	}
	return &EngineCollector{
		matcherElapsed: me,
		matcherModel:   mm,
		batchTasks:     bt,
		batchWorkers:   &metrics.Welford{},
		batchEdges:     &metrics.Welford{},
	}
}

// Attach installs the collector as a tap on the engine's event spine.
// Call once, before traffic starts.
func (c *EngineCollector) Attach(eng *engine.Engine) {
	eng.Events().Tap(c.HandleEvent)
}

// HandleEvent consumes one spine event: batch summaries feed the
// matcher/graph instruments.
func (c *EngineCollector) HandleEvent(ev event.Event) {
	if ev.Kind != event.KindBatch {
		return
	}
	b := ev.Batch
	c.matcherElapsed.Observe(b.Elapsed.Seconds())
	if b.Latency > 0 {
		c.matcherModel.Observe(b.Latency.Seconds())
	}
	c.batchTasks.Observe(float64(b.Tasks))
	c.batchWorkers.Observe(float64(b.Workers))
	c.batchEdges.Observe(float64(b.Edges))
	c.prunedProb.Add(int64(b.PrunedProb))
}

// Register adds the collector's instruments plus the engine's own counters
// and the task store's depths to reg. The labels (e.g.
// region="athens-ne") are attached to every family, so several engines can
// share one registry.
// Registration errors are programming bugs (duplicate names/labels) and
// are returned for the caller to fail fast on.
func (c *EngineCollector) Register(reg *metrics.Registry, eng *engine.Engine, labels ...metrics.Label) error {
	stat := func(read func(engine.Stats) float64) func() float64 {
		return func() float64 { return read(eng.Stats()) }
	}
	counters := []struct {
		name, help string
		read       func(engine.Stats) float64
	}{
		{"react_engine_tasks_received_total", "tasks submitted to the engine", func(s engine.Stats) float64 { return float64(s.Received) }},
		{"react_engine_tasks_assigned_total", "assignments applied and delivered", func(s engine.Stats) float64 { return float64(s.Assigned) }},
		{"react_engine_tasks_completed_total", "tasks completed by workers", func(s engine.Stats) float64 { return float64(s.Completed) }},
		{"react_engine_tasks_ontime_total", "completions at or before the deadline", func(s engine.Stats) float64 { return float64(s.OnTime) }},
		{"react_engine_tasks_expired_total", "tasks that left the repository unserved", func(s engine.Stats) float64 { return float64(s.Expired) }},
		{"react_engine_tasks_reassigned_total", "assignments revoked (Eq. 2 monitor + detaches)", func(s engine.Stats) float64 { return float64(s.Reassigned) }},
		{"react_engine_batches_total", "scheduling rounds run", func(s engine.Stats) float64 { return float64(s.Batches) }},
		{"react_engine_matcher_seconds_total", "cumulative matcher wall time", func(s engine.Stats) float64 { return s.MatcherTime.Seconds() }},
	}
	for _, m := range counters {
		if err := reg.RegisterCounterFunc(m.name, m.help, stat(m.read), labels...); err != nil {
			return err
		}
	}

	if err := reg.RegisterHistogram("react_engine_matcher_latency_seconds",
		"measured matcher wall time per scheduling round", c.matcherElapsed, labels...); err != nil {
		return err
	}
	if err := reg.RegisterHistogram("react_engine_matcher_model_latency_seconds",
		"modelled matcher latency charged per round (Config.Latency)", c.matcherModel, labels...); err != nil {
		return err
	}
	if err := reg.RegisterHistogram("react_engine_batch_tasks",
		"unassigned tasks snapshotted per scheduling round", c.batchTasks, labels...); err != nil {
		return err
	}
	if err := reg.RegisterSummary("react_engine_batch_workers",
		"available workers snapshotted per scheduling round", c.batchWorkers, labels...); err != nil {
		return err
	}
	if err := reg.RegisterSummary("react_engine_batch_edges",
		"Eq. 3 edges instantiated per scheduling round", c.batchEdges, labels...); err != nil {
		return err
	}
	if err := reg.RegisterCounter("react_engine_edges_pruned_prob_total",
		"edges dropped by the Eq. 3 probability bound", &c.prunedProb, labels...); err != nil {
		return err
	}
	// Reassignments by cause since this process started (recovery sweeps
	// and undeliverable assignments are on the spine but not exported).
	revoked := func(cause string) func() float64 {
		return func() float64 { return float64(eng.Ledger().Revoked(cause)) }
	}
	if err := reg.RegisterCounterFunc("react_engine_reassign_eq2_total",
		"Eq. 2 monitor revocations", revoked(taskq.CauseEq2), labels...); err != nil {
		return err
	}
	if err := reg.RegisterCounterFunc("react_engine_reassign_detach_total",
		"revocations caused by worker detach", revoked(taskq.CauseDetach), labels...); err != nil {
		return err
	}
	// Missed deadlines by cause, likewise since this process started: the
	// attribution reactsim -losses prints, read off the same ledger.
	for _, kind := range event.LossKinds {
		causeLabels := append(append([]metrics.Label(nil), labels...), metrics.L("cause", string(kind)))
		if err := reg.RegisterCounterFunc("react_deadline_miss_total",
			"tasks that expired or completed late, by what the scheduler did with them",
			func() float64 { return float64(eng.Ledger().Missed(kind)) }, causeLabels...); err != nil {
			return err
		}
	}

	// Event-spine health: fan-out volume, subscriber overflow drops, and
	// the live subscriber count, read off the bus at scrape time.
	bus := eng.Events()
	if err := reg.RegisterCounterFunc("react_events_published_total",
		"events published on the lifecycle event spine", func() float64 { return float64(bus.Stats().Published) }, labels...); err != nil {
		return err
	}
	if err := reg.RegisterCounterFunc("react_events_dropped_total",
		"events dropped by full subscription buffers", func() float64 { return float64(bus.Stats().Dropped) }, labels...); err != nil {
		return err
	}
	if err := reg.RegisterGauge("react_event_subscribers",
		"open event-spine subscriptions", func() float64 { return float64(bus.Stats().Subscribers) }, labels...); err != nil {
		return err
	}

	// Worker-registry gauges.
	workers := eng.Workers()
	if err := reg.RegisterGauge("react_workers_online",
		"connected workers (busy or idle)", func() float64 { return float64(workers.CountConnected()) }, labels...); err != nil {
		return err
	}
	if err := reg.RegisterGauge("react_workers_known",
		"every profile the engine remembers, including detached workers", func() float64 { return float64(workers.Size()) }, labels...); err != nil {
		return err
	}
	if err := reg.RegisterGauge("react_workers_available",
		"connected idle workers eligible for matching", func() float64 { return float64(len(workers.Available())) }, labels...); err != nil {
		return err
	}

	// Task-store depths and high-water mark.
	store := eng.Tasks()
	depth := func(read func(engine.ShardStat) int) func() float64 {
		return func() float64 { return float64(read(store.ShardStats()[0])) }
	}
	if err := reg.RegisterGauge("react_taskq_unassigned",
		"tasks waiting for a worker", depth(func(s engine.ShardStat) int { return s.Unassigned }), labels...); err != nil {
		return err
	}
	if err := reg.RegisterGauge("react_taskq_assigned",
		"tasks in a worker's hands", depth(func(s engine.ShardStat) int { return s.Assigned }), labels...); err != nil {
		return err
	}
	if err := reg.RegisterGauge("react_taskq_terminal",
		"completed+expired records retained", depth(func(s engine.ShardStat) int { return s.Terminal }), labels...); err != nil {
		return err
	}
	if err := reg.RegisterGauge("react_taskq_unassigned_highwater",
		"peak unassigned backlog ever held", depth(func(s engine.ShardStat) int { return s.UnassignedHighWater }), labels...); err != nil {
		return err
	}
	return nil
}

// admissionProbHistogramWidth/Buckets shape the predicted deadline-
// meeting-probability histogram: 0.02-wide buckets spanning [0, 1]. Mass
// piling up just above the floor means the plane is running at the edge
// of its capacity model.
const (
	admissionProbHistogramWidth   = 0.02
	admissionProbHistogramBuckets = 50
)

// RegisterAdmission exposes an admission controller's decision counters,
// load gauges, and the per-decision probability histogram. It installs
// the controller's observer, so call it at most once per controller and
// before traffic starts. Per-requester bucket fills are deliberately not
// exported here (the registry has no dynamic labels); they live in the
// /statusz admission block instead.
func RegisterAdmission(reg *metrics.Registry, ctl *admission.Controller, labels ...metrics.Label) error {
	counters := []struct {
		name, help string
		read       func(admitted, rejProb, rejRate, shed int64) int64
	}{
		{"react_admission_admitted_total", "submissions admitted", func(a, _, _, _ int64) int64 { return a }},
		{"react_admission_rejected_probability_total", "submissions rejected below the probability floor", func(_, p, _, _ int64) int64 { return p }},
		{"react_admission_rejected_rate_total", "submissions rejected by rate or concurrency limits", func(_, _, r, _ int64) int64 { return r }},
		{"react_admission_shed_total", "queued tasks shed by the queue-delay controller", func(_, _, _, s int64) int64 { return s }},
	}
	for _, c := range counters {
		c := c
		read := func() float64 { return float64(c.read(ctl.Counters())) }
		if err := reg.RegisterCounterFunc(c.name, c.help, read, labels...); err != nil {
			return err
		}
	}
	if err := reg.RegisterGauge("react_admission_inflight",
		"tasks submitted but not yet terminal, as seen by admission", func() float64 {
			inflight, _ := ctl.Loads()
			return float64(inflight)
		}, labels...); err != nil {
		return err
	}
	if err := reg.RegisterGauge("react_admission_unassigned",
		"tasks waiting for a worker, as seen by admission", func() float64 {
			_, unassigned := ctl.Loads()
			return float64(unassigned)
		}, labels...); err != nil {
		return err
	}
	if err := reg.RegisterGauge("react_admission_prob_floor",
		"configured admission probability floor", func() float64 { return ctl.Config().ProbFloor }, labels...); err != nil {
		return err
	}
	if err := reg.RegisterGauge("react_admission_fleet_samples",
		"execution-time samples in the pooled fleet model", func() float64 {
			n, _, _ := ctl.FleetModel()
			return float64(n)
		}, labels...); err != nil {
		return err
	}
	if err := reg.RegisterGauge("react_admission_capacity_per_second",
		"estimated fleet service rate: online workers over median service time (0 while the model is cold)", func() float64 {
			_, median, warm := ctl.FleetModel()
			if !warm || median <= 0 || ctl.Config().Workers == nil {
				return 0
			}
			return float64(ctl.Config().Workers()) / median
		}, labels...); err != nil {
		return err
	}

	probHist, err := metrics.NewHistogram(admissionProbHistogramWidth, admissionProbHistogramBuckets)
	if err != nil {
		panic(err) // constants above are valid by construction
	}
	if err := reg.RegisterHistogram("react_admission_probability",
		"predicted deadline-meeting probability per admission decision", probHist, labels...); err != nil {
		return err
	}
	ctl.SetObserver(func(d admission.Decision) { probHist.Observe(d.Probability) })
	return nil
}

// RegisterWireServer adds a wire transport's connection/frame counters
// plus its write-coalescing instruments to reg. It installs a flush
// observer on srv, so every completed flush (from any connection's
// writer) feeds the frames-per-flush and flush-latency histograms; call
// it before traffic starts.
func RegisterWireServer(reg *metrics.Registry, srv *wire.Server, labels ...metrics.Label) error {
	snap := func(read func(wire.ServerMetrics) float64) func() float64 {
		return func() float64 { return read(srv.Metrics()) }
	}
	gauges := []struct {
		name, help string
		read       func(wire.ServerMetrics) float64
	}{
		{"react_wire_connections_active", "connections currently open", func(m wire.ServerMetrics) float64 { return float64(m.ConnsActive) }},
		{"react_wire_watchers", "connections subscribed to result pushes", func(m wire.ServerMetrics) float64 { return float64(m.Watchers) }},
	}
	for _, g := range gauges {
		if err := reg.RegisterGauge(g.name, g.help, snap(g.read), labels...); err != nil {
			return err
		}
	}
	counters := []struct {
		name, help string
		read       func(wire.ServerMetrics) float64
	}{
		{"react_wire_connections_total", "connections ever accepted", func(m wire.ServerMetrics) float64 { return float64(m.ConnsTotal) }},
		{"react_wire_frames_read_total", "frames parsed off all connections", func(m wire.ServerMetrics) float64 { return float64(m.FramesRead) }},
		{"react_wire_frames_written_total", "frames written (responses + pushes)", func(m wire.ServerMetrics) float64 { return float64(m.FramesWritten) }},
		{"react_wire_bad_frames_total", "inbound frames that failed to parse", func(m wire.ServerMetrics) float64 { return float64(m.BadFrames) }},
		{"react_wire_errors_sent_total", "error responses sent", func(m wire.ServerMetrics) float64 { return float64(m.ErrorsSent) }},
		{"react_wire_bytes_written_total", "bytes flushed to all connections", func(m wire.ServerMetrics) float64 { return float64(m.BytesWritten) }},
		{"react_wire_flushes_total", "coalesced write syscalls across all connections", func(m wire.ServerMetrics) float64 { return float64(m.Flushes) }},
	}
	for _, c := range counters {
		if err := reg.RegisterCounterFunc(c.name, c.help, snap(c.read), labels...); err != nil {
			return err
		}
	}

	framesPerFlush, err := metrics.NewHistogram(framesPerFlushHistogramWidth, framesPerFlushHistogramBuckets)
	if err != nil {
		panic(err) // constants above are valid by construction
	}
	flushLatency, err := metrics.NewHistogram(flushLatencyHistogramWidth, flushLatencyHistogramBuckets)
	if err != nil {
		panic(err)
	}
	if err := reg.RegisterHistogram("react_wire_frames_per_flush",
		"frames coalesced into each write syscall", framesPerFlush, labels...); err != nil {
		return err
	}
	if err := reg.RegisterHistogram("react_wire_flush_latency_seconds",
		"wall time of each coalesced write syscall", flushLatency, labels...); err != nil {
		return err
	}
	srv.SetFlushObserver(func(frames, bytes int, latencySeconds float64) {
		framesPerFlush.Observe(float64(frames))
		flushLatency.Observe(latencySeconds)
	})
	return nil
}
