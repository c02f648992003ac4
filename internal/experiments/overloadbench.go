package experiments

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"time"

	"react/internal/admission"
	"react/internal/clock"
	"react/internal/engine"
	"react/internal/matching"
	"react/internal/region"
	"react/internal/schedule"
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

// OverloadBenchConfig shapes the three-arm overload experiment behind
// TestOverloadBenchAdmissionProtectsGoodput. Everything runs in virtual
// time on one goroutine, so the numbers are bit-identical across machines
// — the test compares exact behaviour, not wall clocks.
type OverloadBenchConfig struct {
	Workers        int           // simulated fleet size (default 20)
	Duration       time.Duration // virtual run length (default 60s)
	BaseRate       float64       // 1x arrivals per second (default 12)
	OverloadFactor int           // overload arms multiply BaseRate by this (default 10)
	Deadline       time.Duration // per-task deadline from submission (default 2s)
	// Every TightEvery-th task carries TightDeadline instead (defaults 4
	// and 700ms): a slice of urgent work that is feasible on an idle
	// fleet but hopeless behind a queue, which is what makes the
	// probability floor — not just the concurrency ceiling — bind.
	TightEvery    int
	TightDeadline time.Duration
	Seed          int64 // drives the uniform matcher's pairing order
}

func (c OverloadBenchConfig) normalize() OverloadBenchConfig {
	if c.Workers <= 0 {
		c.Workers = 20
	}
	if c.Duration <= 0 {
		c.Duration = 60 * time.Second
	}
	if c.BaseRate <= 0 {
		c.BaseRate = 12
	}
	if c.OverloadFactor <= 1 {
		c.OverloadFactor = 10
	}
	if c.Deadline <= 0 {
		c.Deadline = 2 * time.Second
	}
	if c.TightEvery <= 0 {
		c.TightEvery = 4
	}
	if c.TightDeadline <= 0 {
		c.TightDeadline = 700 * time.Millisecond
	}
	return c
}

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

// OverloadBenchResult is the full experiment: a 1x baseline, the same
// fleet at OverloadFactor-times the arrival rate with the admission
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

// completion is one worker's scheduled finish.
type completion struct {
	at     time.Time
	taskID string
	worker string
}

// runOverloadArm simulates one arm: open-loop arrivals at rate per
// second against a fresh fleet, workers serving power-law execution
// times, with the engine's admission plane on when acfg is set. The
// matcher is the paper's "traditional" uniform pairing (§V.C) with edge
// pruning off — the point of the experiment is what the admission plane
// does for a scheduler that is itself deadline-blind.
func runOverloadArm(cfg OverloadBenchConfig, name string, rate float64, acfg *admission.Config) (OverloadArmResult, error) {
	clk := clock.NewVirtual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	start := clk.Now()
	loc := region.Point{Lat: 38, Lon: 23.7}

	var delivered []engine.Assignment
	eng := engine.New(engine.Config{
		Clock:   clk,
		Matcher: matching.Uniform{Rand: rand.New(rand.NewSource(cfg.Seed))},
		Schedule: schedule.Config{
			BatchBound:  1,
			BatchPeriod: time.Second,
		},
		Shards:    1,
		Admission: acfg,
	}, engine.Hooks{
		Deliver: func(a engine.Assignment) bool {
			delivered = append(delivered, a)
			return true
		},
	})
	for w := 0; w < cfg.Workers; w++ {
		if _, err := eng.AttachWorker(fmt.Sprintf("w%02d", w), loc); err != nil {
			return OverloadArmResult{}, err
		}
	}

	res := OverloadArmResult{Name: name, Admission: acfg != nil}
	var pending []completion
	const dt = 50 * time.Millisecond
	ticks := int(cfg.Duration / dt)
	for i := 0; i < ticks; i++ {
		clk.Advance(dt)
		now := clk.Now()

		// Finish every service due by now (late completions included:
		// the soft-deadline policy lets assigned tasks run to the end).
		for len(pending) > 0 && !pending[0].at.After(now) {
			c := pending[0]
			pending = pending[1:]
			_, _, _ = eng.Complete(c.taskID, c.worker, "ok") //nolint — a shed/raced task is simply gone
		}

		// Open-loop arrivals: the offered schedule never slows down for
		// the server, which is exactly what makes overload overload.
		for float64(res.Offered) < rate*now.Sub(start).Seconds() {
			deadline := cfg.Deadline
			if res.Offered%cfg.TightEvery == cfg.TightEvery-1 {
				deadline = cfg.TightDeadline
			}
			t := taskq.Task{
				ID:       fmt.Sprintf("t%07d", res.Offered),
				Location: loc,
				Deadline: now.Add(deadline),
				Reward:   1,
			}
			res.Offered++
			d, err := eng.SubmitFrom("load", t)
			if !d.Admitted() {
				continue
			}
			if err != nil {
				return OverloadArmResult{}, err
			}
			res.Submitted++
		}

		eng.Tick()
		for _, a := range delivered {
			c := completion{at: now.Add(execTimeFor(a.TaskID)), taskID: a.TaskID, worker: a.WorkerID}
			at := sort.Search(len(pending), func(j int) bool {
				if !pending[j].at.Equal(c.at) {
					return pending[j].at.After(c.at)
				}
				return pending[j].taskID > c.taskID
			})
			pending = append(pending, completion{})
			copy(pending[at+1:], pending[at:])
			pending[at] = c
		}
		delivered = delivered[:0]
	}

	st := eng.Stats()
	res.Completed = st.Completed
	res.OnTime = st.OnTime
	res.Expired = st.Expired
	if ctl := eng.Admission(); ctl != nil {
		_, res.RejectedProbability, res.RejectedRate, res.Shed = ctl.Counters()
	}
	res.GoodputPerSec = float64(st.OnTime) / cfg.Duration.Seconds()
	if res.Offered > 0 {
		res.GoodputPerOffered = float64(st.OnTime) / float64(res.Offered)
	}
	for _, sh := range eng.Tasks().ShardStats() {
		res.UnassignedHighWater += sh.UnassignedHighWater
	}
	return res, nil
}

// RunOverloadBench runs the three arms and derives the goodput ratios.
// The admission arm uses the plane's production defaults scaled to the
// simulated fleet: an in-flight ceiling of twice the fleet, a 0.5
// probability floor, and a 500 ms CoDel target.
func RunOverloadBench(cfg OverloadBenchConfig) (OverloadBenchResult, error) {
	cfg = cfg.normalize()
	res := OverloadBenchResult{
		Workers:         cfg.Workers,
		DurationSeconds: cfg.Duration.Seconds(),
		BaseRate:        cfg.BaseRate,
		OverloadFactor:  cfg.OverloadFactor,
		DeadlineSeconds: cfg.Deadline.Seconds(),
		TightEvery:      cfg.TightEvery,
		TightDeadlineS:  cfg.TightDeadline.Seconds(),
		Seed:            cfg.Seed,
	}
	overRate := cfg.BaseRate * float64(cfg.OverloadFactor)
	acfg := &admission.Config{
		ProbFloor:    0.5,
		MaxInflight:  2 * cfg.Workers,
		ShedTarget:   500 * time.Millisecond,
		ShedInterval: 200 * time.Millisecond,
	}
	var err error
	if res.Baseline, err = runOverloadArm(cfg, "baseline_1x", cfg.BaseRate, nil); err != nil {
		return res, err
	}
	if res.OverloadOff, err = runOverloadArm(cfg, "overload_off", overRate, nil); err != nil {
		return res, err
	}
	if res.OverloadOn, err = runOverloadArm(cfg, "overload_on", overRate, acfg); err != nil {
		return res, err
	}
	if res.Baseline.GoodputPerSec > 0 {
		res.GoodputRatioOff = res.OverloadOff.GoodputPerSec / res.Baseline.GoodputPerSec
		res.GoodputRatioOn = res.OverloadOn.GoodputPerSec / res.Baseline.GoodputPerSec
	}
	return res, nil
}
