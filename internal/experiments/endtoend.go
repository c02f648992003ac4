package experiments

import (
	"fmt"
	"time"

	"react/internal/crowd"
	"react/internal/engine"
	"react/internal/event"
	"react/internal/metrics"
	"react/internal/schedule"
	"react/internal/sim"
	"react/internal/taskq"
	"react/internal/workload"
)

// drainGrace is the virtual time a run keeps going after its last arrival,
// for stragglers to finish.
const drainGrace = 5 * time.Minute

// ScenarioConfig describes one end-to-end run of §V.C: a single region
// server, a worker population, and a task stream. Zero fields are filled by
// Normalize with the paper's main-experiment settings (750 workers,
// 9.375 tasks/s, 8371 tasks, REACT at 1000 cycles); the engine's own
// defaults give the rest (batch bound 10, 5 s batch period, Eq. 2
// threshold 0.1 swept every second).
type ScenarioConfig struct {
	Technique   Technique
	Workers     int
	Rate        float64 // tasks per second
	TargetTasks int     // submissions before the stream stops
	Seed        int64
	// DeadlineMin/Max override the task deadline band (zero: the paper's
	// 60-120 s derived from the case study). Used by the sensitivity sweep.
	DeadlineMin time.Duration
	DeadlineMax time.Duration
	// MonitorThreshold overrides the Eq. 2 reassignment bound (zero: the
	// paper's 0.1, or off for a technique with NoPruning, which keeps no
	// worker model; negative: off).
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
	if c.Technique.Matcher == nil {
		c.Technique = REACTTechnique(0, c.Seed)
	}
	if c.MonitorThreshold == 0 && c.Technique.NoPruning {
		c.MonitorThreshold = -1
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
	Positive        int // positive feedbacks (Fig. 6); the ledger does not count grades
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
// code the live server runs, paced the same way: Engine.Start arms its
// ticks and kicked rounds through Config.Defer on the virtual clock, which
// also charges the modelled matcher latency of DESIGN.md §2
// (Config.Latency). This harness only schedules arrivals, completions and
// churn, and a tap on the engine's event spine sums the modelled matcher
// time.
func RunScenario(cfg ScenarioConfig) ScenarioResult { return runScenario(cfg, nil) }

// runScenario is RunScenario with one more spine tap, when tap is non-nil,
// installed before the first event: tests read the run's lifecycle through
// it.
func runScenario(cfg ScenarioConfig, tap func(event.Event)) ScenarioResult {
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

	var re *engine.Engine
	// The run's lifecycle counts are the engine ledger's, read where a
	// figure needs them.
	counts := func() event.Tally { return re.Ledger().Counts() }

	re = newHost(eng, engine.Config{
		Matcher:  cfg.Technique.Matcher,
		Schedule: schedule.Config{NoPruning: cfg.Technique.NoPruning},
		Monitor:  engine.Monitor{Threshold: cfg.MonitorThreshold},
		Latency:  cfg.Technique.Cost,
	}, func(rec taskq.Record) time.Duration {
		return behaviors[rec.Worker].ExecTime(execRng)
	}, func(final taskq.Record) {
		pos := behaviors[final.Worker].PositiveFeedback(fbRng, final.MetDeadline())
		re.Feedback(final.Task.ID, pos) // ErrNoWorker impossible: sim workers never deregister
		if pos {
			res.Positive++
		}
		workerExec.Observe(final.ExecTime().Seconds())
		execHist.Observe(final.ExecTime().Seconds())
		totalExec.Observe(final.TotalTime().Seconds())
		attempts.Observe(float64(final.Attempts))
		res.MaxAttempts = max(res.MaxAttempts, final.Attempts)
		c := counts()
		res.OnTimeSeries.Add(float64(c.Received), float64(c.OnTime))
		res.PositiveSeries.Add(float64(c.Received), float64(res.Positive))
	})

	// The modelled matcher time rides the event spine (the lifecycle counts
	// are the engine's ledger's). The sim is single-threaded, so a
	// synchronous tap mutating res is safe.
	re.Events().Tap(func(ev event.Event) {
		if ev.Kind == event.KindBatch {
			res.MatcherBusy += ev.Batch.Latency.Seconds()
		}
	})
	if tap != nil {
		re.Events().Tap(tap)
	}

	// Population: behaviours drawn from the case-study marginals, locations
	// uniform in the workload's area.
	gen := workload.Generator{DeadlineMin: cfg.DeadlineMin, DeadlineMax: cfg.DeadlineMax}.Normalize()
	locRng := eng.Rand("locations")
	for i, b := range crowd.NewPopulation(cfg.Workers, eng.Rand("population")) {
		id := fmt.Sprintf("w%04d", i)
		behaviors[id] = b
		if _, err := re.AttachWorker(id, gen.Area.RandomPoint(locRng)); err != nil {
			panic(err) // ids are unique by construction
		}
	}

	// Arrivals: one event per task until TargetTasks have landed; a submit
	// over BatchBound kicks a round.
	stream := workload.NewStream(gen, workload.Constant{Rate: cfg.Rate}, eng.Now(), eng.Rand("workload"))
	arrive(eng, stream.Peek(), func(time.Time) (time.Time, bool) {
		_ = re.Submit(stream.Take()) // a refused task is not received: the ledger counts only submits that land
		return stream.Peek(), counts().Received < int64(cfg.TargetTasks)
	})

	// Connectivity churn: workers drop offline and return, independent of
	// any task they hold (a held task completes normally; the worker just
	// receives no new work while offline). Returning kicks, as wire's
	// available: true does.
	if cfg.Churn > 0 {
		churnRng := eng.Rand("churn")
		for _, p := range re.Workers().All() {
			id := p.ID()
			var toggle func(online bool) sim.Handler
			toggle = func(online bool) sim.Handler {
				return func(now time.Time) {
					_ = re.SetAvailable(id, online) // sim workers never deregister
					// The period that starts now determines the next
					// toggle: online periods have mean Churn, offline
					// periods mean Churn/4.
					mean := cfg.Churn.Seconds()
					if !online {
						mean /= 4
					}
					gap := time.Duration(churnRng.ExpFloat64() * mean * float64(time.Second))
					eng.After(gap, toggle(!online))
				}
			}
			first := time.Duration(churnRng.ExpFloat64() * cfg.Churn.Seconds() * float64(time.Second))
			eng.After(first, toggle(false))
		}
	}

	re.Start()
	// Run until every submitted task is terminal or the grace window ends.
	arrivalSpan := time.Duration(float64(cfg.TargetTasks)/cfg.Rate*float64(time.Second)) + time.Second
	deadline := eng.Now().Add(arrivalSpan + drainGrace)
	for eng.Now().Before(deadline) {
		eng.RunFor(10 * time.Second)
		_, _, completed, expired := re.Tasks().Counts()
		if received := int(counts().Received); received >= cfg.TargetTasks && completed+expired == received {
			break
		}
	}
	re.Stop()

	// Anything still live at the cap is a missed task.
	re.Tasks().ExpireDue()

	st := re.Stats()
	res.Ledger = re.Ledger()
	res.Received = int(st.Received)
	res.CompletedOnTime = int(st.OnTime)
	res.CompletedLate = int(st.Completed - st.OnTime)
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
