package experiments

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"react/internal/crowd"
	"react/internal/engine"
	"react/internal/event"
	"react/internal/metrics"
	"react/internal/region"
	"react/internal/sim"
	"react/internal/taskq"
	"react/internal/workload"
)

// newRand derives a deterministic RNG from a seed and a label, mirroring
// sim.Engine.Rand for components constructed before the engine exists.
func newRand(seed int64, label string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprint(h, label)
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// ScenarioConfig describes one end-to-end run of §V.C: a single region
// server, a worker population, and a task stream. Zero fields are filled by
// Normalize with the paper's main-experiment settings (750 workers,
// 9.375 tasks/s, 8371 tasks, batch bound 10, monitor threshold 0.1, 1000
// REACT cycles).
type ScenarioConfig struct {
	Technique     Technique
	Workers       int
	Rate          float64 // tasks per second
	TargetTasks   int     // submissions before the stream stops
	Seed          int64
	BatchBound    int
	BatchPeriod   time.Duration
	MonitorPeriod time.Duration
	DrainGrace    time.Duration // extra virtual time for stragglers after the last arrival
	Area          region.Rect
	// DeadlineMin/Max override the task deadline band (zero: the paper's
	// 60-120 s derived from the case study). Used by the sensitivity sweep.
	DeadlineMin time.Duration
	DeadlineMax time.Duration
	// MonitorThreshold overrides the Eq. 2 reassignment bound (zero: the
	// paper's 0.1).
	MonitorThreshold float64
	// Churn enables worker connectivity cycles (§I: "even the most
	// reliable workers may have short connectivity cycles"): each worker
	// alternates online periods with mean Churn and offline periods with
	// mean Churn/4, exponentially distributed. Zero keeps every worker
	// online for the whole run (the paper's setup).
	Churn time.Duration
}

// Normalize fills defaults.
func (c ScenarioConfig) Normalize() ScenarioConfig {
	if c.Workers <= 0 {
		c.Workers = 750
	}
	if c.Rate <= 0 {
		c.Rate = 9.375
	}
	if c.TargetTasks <= 0 {
		c.TargetTasks = 8371
	}
	if c.BatchBound <= 0 {
		c.BatchBound = 10
	}
	if c.BatchPeriod <= 0 {
		c.BatchPeriod = 5 * time.Second
	}
	if c.MonitorPeriod <= 0 {
		c.MonitorPeriod = time.Second
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 5 * time.Minute
	}
	if !c.Area.Valid() {
		c.Area = region.Rect{MinLat: 37.8, MinLon: 23.5, MaxLat: 38.2, MaxLon: 24.0}
	}
	if c.Technique.Matcher == nil {
		c.Technique = REACTTechnique(0, c.Seed)
	}
	return c
}

// ScenarioResult aggregates everything Figures 5–8 report for one
// technique.
type ScenarioResult struct {
	Technique string
	Workers   int
	Rate      float64

	Received        int // tasks submitted
	CompletedOnTime int // finished at or before their deadline (Fig. 5)
	CompletedLate   int // finished after the deadline (counted as missed)
	Expired         int // left the repository unassigned
	Positive        int // positive feedbacks (Fig. 6)
	Reassignments   int // Eq. 2 monitor interventions
	Batches         int // matching rounds executed

	MeanWorkerExec float64 // seconds, final worker only (Fig. 7)
	MeanTotalExec  float64 // seconds, submission → completion (Fig. 8)
	MatcherBusy    float64 // total modelled matcher seconds
	MeanAttempts   float64 // assignments per completed task (1 = never reassigned)
	MaxAttempts    int     // worst-case bouncing
	WorkerExecP50  float64 // median final-worker execution seconds
	WorkerExecP95  float64 // tail final-worker execution seconds

	// Ledger is the engine's fold of the run's lifecycle events: the
	// counters above come from it, and Missed(kind) attributes each miss.
	Ledger *event.Ledger

	OnTimeSeries   *metrics.Series // (received, cumulative on-time) — Fig. 5
	PositiveSeries *metrics.Series // (received, cumulative positive) — Fig. 6
}

// OnTimeFraction is CompletedOnTime / Received.
func (r ScenarioResult) OnTimeFraction() float64 {
	if r.Received == 0 {
		return 0
	}
	return float64(r.CompletedOnTime) / float64(r.Received)
}

// PositiveFraction is Positive / Received.
func (r ScenarioResult) PositiveFraction() float64 {
	if r.Received == 0 {
		return 0
	}
	return float64(r.Positive) / float64(r.Received)
}

// RunScenario executes one end-to-end simulation and returns its metrics.
//
// All scheduling logic — trigger, graph construction, matching, assignment
// application, Eq. 2 monitoring, expiry — lives in internal/engine, the same
// code the live server runs. This harness only hosts the engine on the
// virtual clock: engine ticks become simulation events, the modelled matcher
// latency of DESIGN.md §2 is charged through Config.Latency/Config.Defer,
// and a tap on the engine's event spine sums the modelled matcher time.
func RunScenario(cfg ScenarioConfig) ScenarioResult {
	cfg = cfg.Normalize()
	eng := sim.New(cfg.Seed)

	res := ScenarioResult{
		Technique:      cfg.Technique.Name,
		Workers:        cfg.Workers,
		Rate:           cfg.Rate,
		OnTimeSeries:   metrics.NewSeries(cfg.Technique.Name + "-ontime"),
		PositiveSeries: metrics.NewSeries(cfg.Technique.Name + "-positive"),
	}
	var workerExec, totalExec, attempts metrics.Welford
	execHist, _ := metrics.NewHistogram(1, 400) // 1s buckets to 400s

	behaviors := make(map[string]crowd.Behavior, cfg.Workers)
	execRng := eng.Rand("exec")
	fbRng := eng.Rand("feedback")

	// The engine runs on the simulation's virtual clock with a single task
	// shard: one event fires at a time, so striping buys nothing, and one
	// shard keeps snapshot order trivially identical to the live layout
	// (the store re-sorts globally either way).
	var re *engine.Engine

	// completeTask fires when a worker finishes; stale events (task
	// reassigned, completed by someone else, or expired) are recognised by
	// the assignment timestamp and ignored.
	completeTask := func(workerID, taskID string, assignedAt time.Time) sim.Handler {
		return func(now time.Time) {
			rec, okT := re.Tasks().Get(taskID)
			current := okT && rec.Status == taskq.Assigned &&
				rec.Worker == workerID && rec.AssignedAt.Equal(assignedAt)
			if current {
				result, final, err := re.Complete(taskID, workerID, "")
				if err == nil {
					met := result.MetDeadline
					pos := behaviors[workerID].PositiveFeedback(fbRng, met)
					re.Feedback(taskID, pos) // ErrNoWorker impossible: sim workers never deregister
					if met {
						res.CompletedOnTime++
					} else {
						res.CompletedLate++
					}
					if pos {
						res.Positive++
					}
					workerExec.Observe(final.ExecTime().Seconds())
					execHist.Observe(final.ExecTime().Seconds())
					totalExec.Observe(final.TotalTime().Seconds())
					attempts.Observe(float64(final.Attempts))
					if final.Attempts > res.MaxAttempts {
						res.MaxAttempts = final.Attempts
					}
					res.OnTimeSeries.Add(float64(res.Received), float64(res.CompletedOnTime))
					res.PositiveSeries.Add(float64(res.Received), float64(res.Positive))
				}
			}
			// A stale event may still find the worker marked busy on this
			// task (the monitor re-bound it and the old timer outlived the
			// binding); free them.
			if p, ok := re.Workers().Get(workerID); ok && p.CurrentTask() == taskID {
				p.MarkIdle()
			}
			re.TryBatch()
		}
	}

	re = engine.New(engine.Config{
		Clock:    eng.Clock(),
		Matcher:  cfg.Technique.Matcher,
		Schedule: cfg.Technique.ScheduleConfig(cfg.BatchBound, cfg.BatchPeriod),
		Monitor:  engine.Monitor{Threshold: cfg.MonitorThreshold},
		Shards:   1,
		Latency:  cfg.Technique.Cost,
		Defer: func(d time.Duration, fn func(now time.Time)) {
			eng.After(d, "batch-apply", fn)
		},
	}, engine.Hooks{
		// Drawing exec times here — inside the engine's sorted-order
		// apply — keeps the RNG stream, and with it the whole run,
		// deterministic.
		Deliver: func(a engine.Assignment) bool {
			exec := behaviors[a.WorkerID].ExecTime(execRng)
			eng.After(exec, "complete", completeTask(a.WorkerID, a.TaskID, a.AssignedAt))
			return true
		},
	})

	// The modelled matcher time rides the event spine (the lifecycle counts
	// are read off the engine's ledger at the end). The sim is
	// single-threaded, so a synchronous tap mutating res is safe.
	re.Events().Tap(func(ev event.Event) {
		if ev.Kind == event.KindBatch {
			res.MatcherBusy += ev.Batch.Latency.Seconds()
		}
	})

	// Population: behaviours drawn from the case-study marginals, locations
	// uniform in the region.
	locRng := eng.Rand("locations")
	for i, b := range crowd.NewPopulation(cfg.Workers, eng.Rand("population")) {
		id := fmt.Sprintf("w%04d", i)
		behaviors[id] = b
		if _, err := re.AttachWorker(id, cfg.Area.RandomPoint(locRng)); err != nil {
			panic(err) // ids are unique by construction
		}
	}

	gen := workload.Generator{
		Prefix:      "task",
		Area:        cfg.Area,
		DeadlineMin: cfg.DeadlineMin,
		DeadlineMax: cfg.DeadlineMax,
	}
	stream := workload.NewStream(gen, workload.Constant{Rate: cfg.Rate}, eng.Now(), eng.Rand("workload"))

	// Arrival pump: one event per task so the trigger sees every arrival.
	var arrive sim.Handler
	arrive = func(now time.Time) {
		task := stream.Take()
		if err := re.Submit(task); err == nil {
			res.Received++
		}
		if res.Received < cfg.TargetTasks {
			eng.Schedule(stream.Peek(), "arrival", arrive)
		}
		re.TryBatch()
	}
	eng.Schedule(stream.Peek(), "arrival", arrive)

	// Expiry sweep: unassigned tasks leave the repository at their deadline.
	stopExpiry := eng.Every(time.Second, "expire", func(time.Time) {
		re.TickExpiry()
	})

	// Eq. 2 monitor: reassign doomed tasks; the abandoning worker returns
	// to the pool (they were not really working).
	stopMonitor := func() {}
	if cfg.Technique.UseMonitor {
		stopMonitor = eng.Every(cfg.MonitorPeriod, "monitor", func(time.Time) {
			re.TickMonitor()
			re.TryBatch()
		})
	}

	// Connectivity churn: workers drop offline and return, independent of
	// any task they hold (a held task completes normally; the worker just
	// receives no new work while offline).
	if cfg.Churn > 0 {
		churnRng := eng.Rand("churn")
		for _, p := range re.Workers().All() {
			p := p
			var toggle func(online bool) sim.Handler
			toggle = func(online bool) sim.Handler {
				return func(now time.Time) {
					p.SetAvailable(online)
					if online {
						re.TryBatch()
					}
					// The period that starts now determines the next
					// toggle: online periods have mean Churn, offline
					// periods mean Churn/4.
					mean := cfg.Churn.Seconds()
					if !online {
						mean /= 4
					}
					gap := time.Duration(churnRng.ExpFloat64() * mean * float64(time.Second))
					eng.After(gap, "churn", toggle(!online))
				}
			}
			first := time.Duration(churnRng.ExpFloat64() * cfg.Churn.Seconds() * float64(time.Second))
			eng.After(first, "churn", toggle(false))
		}
	}

	// Period flush so sub-bound backlogs are not starved.
	stopFlush := eng.Every(cfg.BatchPeriod, "flush", func(time.Time) {
		re.TryBatch()
	})

	// Run until every submitted task is terminal or the grace window ends.
	arrivalSpan := time.Duration(float64(cfg.TargetTasks)/cfg.Rate*float64(time.Second)) + time.Second
	deadline := eng.Now().Add(arrivalSpan + cfg.DrainGrace)
	for eng.Now().Before(deadline) {
		eng.RunFor(10 * time.Second)
		_, _, completed, expired := re.Tasks().Counts()
		if res.Received >= cfg.TargetTasks && completed+expired == res.Received {
			break
		}
	}
	stopExpiry()
	stopMonitor()
	stopFlush()

	// Anything still live at the cap is a missed task.
	re.ExpireAllDue()

	st := re.Stats()
	res.Ledger = re.Ledger()
	res.Expired = int(st.Expired)
	res.Batches = int(st.Batches)
	res.Reassignments = int(res.Ledger.Revoked(taskq.CauseEq2))
	res.MeanWorkerExec = workerExec.Mean()
	res.MeanTotalExec = totalExec.Mean()
	res.MeanAttempts = attempts.Mean()
	res.WorkerExecP50 = execHist.Quantile(0.5)
	res.WorkerExecP95 = execHist.Quantile(0.95)
	return res
}
