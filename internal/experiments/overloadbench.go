package experiments

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"react/internal/admission"
	"react/internal/engine"
	"react/internal/matching"
	"react/internal/region"
	"react/internal/schedule"
	"react/internal/sim"
	"react/internal/taskq"
)

// Overload-bench service-time distribution: the pooled power law the
// admission plane assumes, α=2.5 over k_min=0.35 s (median ≈ 0.55 s,
// mean ≈ 1.05 s — heavy enough that a few stragglers matter, light
// enough that the fleet keeps a predictable service rate).
const (
	overloadAlpha = 2.5
	overloadKmin  = 0.35
)

// The overload experiment's shape. Everything runs in virtual time on one
// goroutine, so the numbers are bit-identical across machines: the tests
// compare exact behaviour, not wall clocks.
const (
	overloadWorkers  = 20               // simulated fleet size
	overloadDuration = 60 * time.Second // virtual run length
	overloadBaseRate = 12.0             // 1x arrivals per second
	overloadFactor   = 10               // overload arms multiply the base rate by this
	overloadDeadline = 2 * time.Second  // per-task deadline from submission
	// Every overloadTightEvery-th task carries overloadTightDeadline
	// instead: a slice of urgent work that is feasible on an idle fleet
	// but hopeless behind a queue, which is what makes the probability
	// floor — not just the concurrency ceiling — bind.
	overloadTightEvery    = 4
	overloadTightDeadline = 700 * time.Millisecond
	overloadSeed          = 0 // drives the uniform matcher's pairing order
)

// OverloadArmResult is one arm's outcome.
type OverloadArmResult struct {
	Name      string `json:"name"`
	Admission bool   `json:"admission"`
	// Offered counts arrivals; Submitted is what passed admission (equal
	// when the plane is off).
	Offered             int     `json:"offered"`
	Submitted           int     `json:"submitted"`
	RejectedRate        int64   `json:"rejected_rate"`
	RejectedProbability int64   `json:"rejected_probability"`
	Shed                int64   `json:"shed"`
	Completed           int64   `json:"completed"`
	OnTime              int64   `json:"on_time"`
	Expired             int64   `json:"expired"`
	GoodputPerSec       float64 `json:"goodput_per_sec"`  // on-time completions / virtual second
	GoodputPerOffered   float64 `json:"goodput_fraction"` // on-time completions / offered
	UnassignedHighWater int     `json:"unassigned_highwater"`
}

// OverloadBenchResult is the full experiment, echoing its constants: a 1x
// baseline, the same fleet at OverloadFactor-times the arrival rate with the admission
// plane off (the collapse), and again with it on (the recovery).
type OverloadBenchResult struct {
	Workers         int     `json:"workers"`
	DurationSeconds float64 `json:"duration_seconds"`
	BaseRate        float64 `json:"base_rate"`
	OverloadFactor  int     `json:"overload_factor"`
	DeadlineSeconds float64 `json:"deadline_seconds"`
	TightEvery      int     `json:"tight_every"`
	TightDeadlineS  float64 `json:"tight_deadline_seconds"`
	Seed            int64   `json:"seed"`

	Baseline    OverloadArmResult `json:"baseline_1x"`
	OverloadOff OverloadArmResult `json:"overload_off"`
	OverloadOn  OverloadArmResult `json:"overload_on"`

	// GoodputRatioOff/On compare the overload arms' goodput to the 1x
	// baseline's. The tier-1 test requires On >= 0.7: an admission-protected
	// region at 10x offered load must keep at least 70% of its unloaded
	// goodput.
	GoodputRatioOff float64 `json:"goodput_ratio_off"`
	GoodputRatioOn  float64 `json:"goodput_ratio_on"`
}

// execTimeFor derives a task's service time from its id: a power-law
// draw whose uniform variate is the id's hash. Tying the draw to the id
// instead of an RNG stream keeps the simulation deterministic no matter
// what order assignments are delivered in.
func execTimeFor(taskID string) time.Duration {
	h := fnv.New64a()
	h.Write([]byte(taskID))
	// FNV's high bits are weakly mixed for short sequential ids; run the
	// sum through a 64-bit finalizer before treating it as uniform.
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	u := (float64(x>>11) + 0.5) / float64(uint64(1)<<53) // (0,1)
	secs := overloadKmin * math.Pow(u, -1/(overloadAlpha-1))
	return time.Duration(secs * float64(time.Second))
}

// runOverloadArm simulates one arm: open-loop arrivals at rate per
// second against a fresh fleet, workers serving power-law execution
// times, with the engine's admission plane on when acfg is set. The
// matcher is the paper's "traditional" uniform pairing (§V.C) with no
// Eq. 2 monitor — the point of the experiment is what the admission plane
// does for a scheduler that is itself deadline-blind. The engine runs as
// any host runs it, started on the virtual clock with a 50 ms poll.
func runOverloadArm(name string, rate float64, acfg *admission.Config) OverloadArmResult {
	loop := sim.New(overloadSeed)
	start := loop.Now()
	loc := region.Point{Lat: 38, Lon: 23.7}

	// A worker finishes its task after the task's service time (late
	// completions included: the soft-deadline policy lets assigned tasks
	// run to the end); a shed or raced task is simply gone.
	eng := newHost(loop, engine.Config{
		Matcher: matching.Uniform{Rand: rand.New(rand.NewSource(overloadSeed))},
		Schedule: schedule.Config{
			BatchBound:  1,
			BatchPeriod: time.Second,
		},
		Monitor:   engine.Monitor{Threshold: -1},
		Admission: acfg,
		BatchPoll: 50 * time.Millisecond,
	}, func(rec taskq.Record) time.Duration { return execTimeFor(rec.Task.ID) }, nil)
	for w := 0; w < overloadWorkers; w++ {
		if _, err := eng.AttachWorker(fmt.Sprintf("w%02d", w), loc); err != nil {
			panic(err) // ids are unique by construction
		}
	}

	// Open-loop arrivals: the offered schedule never slows down for the
	// server, which is exactly what makes overload overload.
	// Task n arrives at (n+1)/rate, so a run offers rate × duration tasks.
	res := OverloadArmResult{Name: name, Admission: acfg != nil}
	arrivalAt := func(n int) time.Time {
		return start.Add(time.Duration(float64(n+1) / rate * float64(time.Second)))
	}
	arrive(loop, arrivalAt(0), func(now time.Time) (time.Time, bool) {
		deadline := overloadDeadline
		if res.Offered%overloadTightEvery == overloadTightEvery-1 {
			deadline = overloadTightDeadline
		}
		t := taskq.Task{
			ID:       fmt.Sprintf("t%07d", res.Offered),
			Location: loc,
			Deadline: now.Add(deadline),
			Reward:   1,
		}
		res.Offered++
		if _, err := eng.SubmitFrom("load", t); err == nil {
			res.Submitted++
		}
		return arrivalAt(res.Offered), true
	})

	eng.Start()
	loop.RunUntil(start.Add(overloadDuration))
	eng.Stop()

	st := eng.Stats()
	res.Completed = st.Completed
	res.OnTime = st.OnTime
	res.Expired = st.Expired
	if ctl := eng.Admission(); ctl != nil {
		_, res.RejectedProbability, res.RejectedRate, res.Shed = ctl.Counters()
	}
	res.GoodputPerSec = float64(st.OnTime) / overloadDuration.Seconds()
	if res.Offered > 0 {
		res.GoodputPerOffered = float64(st.OnTime) / float64(res.Offered)
	}
	res.UnassignedHighWater = eng.Tasks().ShardStats()[0].UnassignedHighWater
	return res
}

// RunOverloadBench runs the three arms and derives the goodput ratios.
// The admission arm uses the plane's production defaults scaled to the
// simulated fleet: an in-flight ceiling of twice the fleet, a 0.5
// probability floor, and a 500 ms CoDel target.
func RunOverloadBench() OverloadBenchResult {
	res := OverloadBenchResult{
		Workers:         overloadWorkers,
		DurationSeconds: overloadDuration.Seconds(),
		BaseRate:        overloadBaseRate,
		OverloadFactor:  overloadFactor,
		DeadlineSeconds: overloadDeadline.Seconds(),
		TightEvery:      overloadTightEvery,
		TightDeadlineS:  overloadTightDeadline.Seconds(),
		Seed:            overloadSeed,
	}
	overRate := overloadBaseRate * overloadFactor
	acfg := &admission.Config{
		ProbFloor:    0.5,
		MaxInflight:  2 * overloadWorkers,
		ShedTarget:   500 * time.Millisecond,
		ShedInterval: 200 * time.Millisecond,
	}
	res.Baseline = runOverloadArm("baseline_1x", overloadBaseRate, nil)
	res.OverloadOff = runOverloadArm("overload_off", overRate, nil)
	res.OverloadOn = runOverloadArm("overload_on", overRate, acfg)
	if res.Baseline.GoodputPerSec > 0 {
		res.GoodputRatioOff = res.OverloadOff.GoodputPerSec / res.Baseline.GoodputPerSec
		res.GoodputRatioOn = res.OverloadOn.GoodputPerSec / res.Baseline.GoodputPerSec
	}
	return res
}
