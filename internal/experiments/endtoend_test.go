package experiments

import (
	"strings"
	"testing"
	"time"

	"react/internal/event"
)

// smallScenario keeps unit tests fast: 150 workers, 2 tasks/s, 600 tasks
// (5 simulated minutes).
func smallScenario(t Technique, seed int64) ScenarioConfig {
	return ScenarioConfig{
		Technique:   t,
		Workers:     150,
		Rate:        2,
		TargetTasks: 600,
		Seed:        seed,
	}
}

func TestScenarioConservation(t *testing.T) {
	for _, tech := range []Technique{
		REACTTechnique(1000, 1),
		GreedyTechnique(),
		TraditionalTechnique(1),
	} {
		res := RunScenario(smallScenario(tech, 1))
		if res.Received != 600 {
			t.Fatalf("%s: received %d, want 600", tech.Name, res.Received)
		}
		total := res.CompletedOnTime + res.CompletedLate + res.Expired
		if total != res.Received {
			t.Fatalf("%s: terminal %d != received %d (ontime %d late %d expired %d)",
				tech.Name, total, res.Received, res.CompletedOnTime, res.CompletedLate, res.Expired)
		}
		if res.Positive > res.CompletedOnTime {
			t.Fatalf("%s: positive %d exceeds on-time %d", tech.Name, res.Positive, res.CompletedOnTime)
		}
		if res.Batches == 0 {
			t.Fatalf("%s: no batches ran", tech.Name)
		}
		if res.OnTimeSeries.Len() == 0 {
			t.Fatalf("%s: empty Fig.5 series", tech.Name)
		}
	}
}

func TestScenarioDeterministic(t *testing.T) {
	a := RunScenario(smallScenario(REACTTechnique(1000, 7), 7))
	b := RunScenario(smallScenario(REACTTechnique(1000, 7), 7))
	if a.CompletedOnTime != b.CompletedOnTime || a.Positive != b.Positive ||
		a.Reassignments != b.Reassignments || a.Batches != b.Batches {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestREACTBeatsTraditionalOnDeadlines(t *testing.T) {
	// The paper's headline (Fig. 5): REACT meets substantially more
	// deadlines than the traditional platform, because it reassigns doomed
	// tasks. Run the reduced scenario at a scale where all techniques are
	// stable so the comparison isolates the reassignment model.
	react := RunScenario(smallScenario(REACTTechnique(1000, 3), 3))
	trad := RunScenario(smallScenario(TraditionalTechnique(3), 3))
	if react.CompletedOnTime <= trad.CompletedOnTime {
		t.Fatalf("REACT on-time %d not above traditional %d",
			react.CompletedOnTime, trad.CompletedOnTime)
	}
	// And more positive feedback (Fig. 6), via quality-aware selection.
	if react.Positive <= trad.Positive {
		t.Fatalf("REACT positive %d not above traditional %d", react.Positive, trad.Positive)
	}
	// Reassignment actually happened.
	if react.Reassignments == 0 {
		t.Fatal("REACT run never reassigned")
	}
	if trad.Reassignments != 0 {
		t.Fatal("traditional run reassigned")
	}
}

func TestREACTFasterWorkerExec(t *testing.T) {
	// Fig. 7: REACT's final-worker execution times are shorter than the
	// traditional approach's because doomed assignments are cut short and
	// retried on prompt workers.
	react := RunScenario(smallScenario(REACTTechnique(1000, 11), 11))
	trad := RunScenario(smallScenario(TraditionalTechnique(11), 11))
	if react.MeanWorkerExec >= trad.MeanWorkerExec {
		t.Fatalf("REACT mean exec %.1fs not below traditional %.1fs",
			react.MeanWorkerExec, trad.MeanWorkerExec)
	}
	// Fig. 8: total latency (incl. queueing and reassignment) also lower.
	if react.MeanTotalExec >= trad.MeanTotalExec {
		t.Fatalf("REACT mean total %.1fs not below traditional %.1fs",
			react.MeanTotalExec, trad.MeanTotalExec)
	}
}

func TestScenarioNormalizeDefaults(t *testing.T) {
	c := ScenarioConfig{}.Normalize()
	if c.Workers != 750 || c.Rate != 9.375 || c.TargetTasks != 8371 {
		t.Fatalf("defaults = %+v", c)
	}
	if c.Technique.Name != "react" {
		t.Fatalf("default technique = %q", c.Technique.Name)
	}
}

func TestFractions(t *testing.T) {
	r := ScenarioResult{Received: 200, CompletedOnTime: 150, Positive: 100}
	if r.OnTimeFraction() != 0.75 || r.PositiveFraction() != 0.5 {
		t.Fatalf("fractions = %v/%v", r.OnTimeFraction(), r.PositiveFraction())
	}
	var empty ScenarioResult
	if empty.OnTimeFraction() != 0 || empty.PositiveFraction() != 0 {
		t.Fatal("empty fractions not zero")
	}
}

func TestAttemptsTracked(t *testing.T) {
	react := RunScenario(smallScenario(REACTTechnique(1000, 21), 21))
	trad := RunScenario(smallScenario(TraditionalTechnique(21), 21))
	// Traditional never reassigns: every completion took exactly 1 attempt.
	if trad.MeanAttempts != 1 || trad.MaxAttempts != 1 {
		t.Fatalf("traditional attempts = %v/%d", trad.MeanAttempts, trad.MaxAttempts)
	}
	// REACT reassigns, so attempts exceed 1 on average and sometimes chain.
	if react.MeanAttempts <= 1 {
		t.Fatalf("react mean attempts = %v", react.MeanAttempts)
	}
	if react.MaxAttempts < 2 {
		t.Fatalf("react max attempts = %d", react.MaxAttempts)
	}
}

// TestTraceConsistentWithCounters: the harness's own figure counters and
// the engine's ledger (what replaced the per-task trace) count one run the
// same way.
func TestTraceConsistentWithCounters(t *testing.T) {
	res := RunScenario(smallScenario(REACTTechnique(1000, 31), 31))
	n := res.Ledger.Counts()
	if int(n.Received) != res.Received {
		t.Fatalf("ledger received %d != %d", n.Received, res.Received)
	}
	if int(n.Completed) != res.CompletedOnTime+res.CompletedLate {
		t.Fatalf("ledger completed %d != %d", n.Completed, res.CompletedOnTime+res.CompletedLate)
	}
	if int(n.Expired) != res.Expired {
		t.Fatalf("ledger expired %d != %d", n.Expired, res.Expired)
	}
	if open := res.Ledger.InFlight(); open != 0 {
		t.Fatalf("ledger left %d open tasks", open)
	}
	// The sim has no detaches or refused bindings: every revocation is the
	// Eq. 2 monitor's.
	if int(n.Reassigned) != res.Reassignments {
		t.Fatalf("ledger revoked %d != reassignments %d", n.Reassigned, res.Reassignments)
	}
}

// losses reads a finished run's miss attribution off its ledger.
func losses(res ScenarioResult) (sum int, byKind map[event.LossKind]int) {
	byKind = make(map[event.LossKind]int)
	for _, k := range event.LossKinds {
		byKind[k] = int(res.Ledger.Missed(k))
		sum += byKind[k]
	}
	return sum, byKind
}

func TestLossAttributionPartitionsMisses(t *testing.T) {
	res := RunScenario(smallScenario(REACTTechnique(1000, 61), 61))
	if open := res.Ledger.InFlight(); open != 0 {
		t.Fatalf("open lifecycles after drain: %d", open)
	}
	n := res.Ledger.Counts()
	if int(n.OnTime) != res.CompletedOnTime {
		t.Fatalf("met %d != on-time %d", n.OnTime, res.CompletedOnTime)
	}
	missed := int(n.Completed - n.OnTime + n.Expired)
	if missed != res.CompletedLate+res.Expired {
		t.Fatalf("missed %d != late+expired %d", missed, res.CompletedLate+res.Expired)
	}
	if sum, byKind := losses(res); sum != missed {
		t.Fatalf("kinds %+v sum to %d != missed %d", byKind, sum, missed)
	}

	// Traditional: no monitor, so no rescue categories at all, and nothing
	// expires in queue at this stable scale.
	_, lt := losses(RunScenario(smallScenario(TraditionalTechnique(61), 61)))
	if lt[event.LossRescueLate] != 0 || lt[event.LossRescueExpired] != 0 {
		t.Fatalf("traditional has rescue losses: %+v", lt)
	}
	if lt[event.LossAbandoned] == 0 {
		t.Fatal("traditional shows no abandoned-late losses")
	}
}

func TestChurnReducesAvailabilityButConserves(t *testing.T) {
	base := smallScenario(REACTTechnique(1000, 71), 71)
	steady := RunScenario(base)

	churned := base
	churned.Technique = REACTTechnique(1000, 71)
	churned.Churn = 60 * time.Second
	res := RunScenario(churned)
	if res.Received != 600 {
		t.Fatalf("received %d", res.Received)
	}
	if got := res.CompletedOnTime + res.CompletedLate + res.Expired; got != res.Received {
		t.Fatalf("conservation broken under churn: %d != %d", got, res.Received)
	}
	// At this light load (150 workers, 2 tasks/s) losing ~20% of workers
	// to connectivity cycles should neither collapse the run nor change it
	// beyond noise: stay within ±20% of the steady result.
	lo := int(0.8 * float64(steady.CompletedOnTime))
	hi := int(1.2 * float64(steady.CompletedOnTime))
	if res.CompletedOnTime < lo || res.CompletedOnTime > hi {
		t.Fatalf("churned on-time %d outside [%d,%d] around steady %d",
			res.CompletedOnTime, lo, hi, steady.CompletedOnTime)
	}
}

func TestChurnOffPreservesBaselineResults(t *testing.T) {
	// The churn feature must not perturb the published figures when off:
	// a scenario with Churn set to zero explicitly runs exactly as the
	// default one does, counter for counter.
	a := RunScenario(smallScenario(REACTTechnique(1000, 7), 7))
	off := smallScenario(REACTTechnique(1000, 7), 7)
	off.Churn = 0
	b := RunScenario(off)
	if a.CompletedOnTime != b.CompletedOnTime || a.CompletedLate != b.CompletedLate ||
		a.Expired != b.Expired || a.Positive != b.Positive ||
		a.Reassignments != b.Reassignments || a.Batches != b.Batches {
		t.Fatalf("baseline drifted: %+v vs %+v", a, b)
	}
}

func TestSensitivityKnobsApply(t *testing.T) {
	// Longer deadlines must raise the traditional baseline's on-time rate
	// (delayed workers fit inside the window).
	short := smallScenario(TraditionalTechnique(81), 81)
	short.DeadlineMin, short.DeadlineMax = 30*time.Second, 60*time.Second
	long := smallScenario(TraditionalTechnique(81), 81)
	long.DeadlineMin, long.DeadlineMax = 4*time.Minute, 8*time.Minute
	rs, rl := RunScenario(short), RunScenario(long)
	if rl.OnTimeFraction() <= rs.OnTimeFraction() {
		t.Fatalf("longer deadlines did not help: %.2f vs %.2f",
			rl.OnTimeFraction(), rs.OnTimeFraction())
	}
	// A higher Eq.2 threshold must produce at least as many reassignments.
	lo := smallScenario(REACTTechnique(1000, 83), 83)
	lo.MonitorThreshold = 0.02
	hi := smallScenario(REACTTechnique(1000, 83), 83)
	hi.MonitorThreshold = 0.5
	rlo, rhi := RunScenario(lo), RunScenario(hi)
	if rhi.Reassignments <= rlo.Reassignments {
		t.Fatalf("threshold 0.5 reassigned %d, not above 0.02's %d",
			rhi.Reassignments, rlo.Reassignments)
	}
}

func TestLossReportRenders(t *testing.T) {
	template := ScenarioConfig{Workers: 100, Rate: 1.5, TargetTasks: 300}
	rep := LossReport(template, 5)
	var b strings.Builder
	if err := rep.Write(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"react", "greedy", "traditional", string(event.LossQueued)} {
		if !strings.Contains(out, want) {
			t.Fatalf("loss report missing %q:\n%s", want, out)
		}
	}
}

// TestNoAssignmentToABusyWorker: one task at a time per worker (§III.C).
// Over the Fig. 5 techniques at seed 7, no assign event may name a worker
// that still holds another task. The holders are folded here from the
// spine, apart from the registry's own occupancy marks.
func TestNoAssignmentToABusyWorker(t *testing.T) {
	for _, tech := range []Technique{REACTTechnique(0, 7), GreedyTechnique(), TraditionalTechnique(7)} {
		held := map[string]int{} // worker → tasks in its hands
		doubled := 0
		runScenario(ScenarioConfig{Technique: tech, Seed: 7}, func(ev event.Event) {
			switch ev.Kind {
			case event.KindAssign:
				if held[ev.Worker] > 0 {
					doubled++
				}
				held[ev.Worker]++
			case event.KindRevoke, event.KindComplete, event.KindExpire:
				if ev.Worker != "" { // the holder; "" for a task that expired unassigned
					held[ev.Worker]--
				}
			}
		})
		if doubled != 0 {
			t.Errorf("%s: %d assignments went to a worker already holding a task", tech.Name, doubled)
		}
	}
}
