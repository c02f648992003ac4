package main

import (
	"runtime"
	"time"

	"react/internal/admission"
	"react/internal/core"
	"react/internal/matching"
	"react/internal/schedule"
)

// compress is the factor by which human-scale seconds become
// benchmark-scale milliseconds: the same 100× internal/loadgen uses, so
// every ratio the scheduler reasons about (exec band ÷ deadline band,
// batch period ÷ deadline) is the paper's.
const compress = 100

// Timeline of one run. Retention equals the warm-up so that by the time
// the window opens the retained-record population and every worker's
// power-law history are at steady state (Eq. 3 pruning live, not the
// trainee rule). ISSUE.md sized these at 10 s / 10 s / 30 s; the benchmark
// contract caps a whole run at roughly 35 s of wall time, so they are
// halved here and the window comes from --seconds.
const (
	retention = 5 * time.Second
	warmup    = 6 * time.Second
	drainCap  = 8 * time.Second

	// Set-ups timed per run (setup_s is their median): as many as fit in
	// setupBudget, within these limits.
	minSetups   = 5
	maxSetups   = 31
	setupBudget = 1200 * time.Millisecond
)

// shape is how load is offered.
type shape int

const (
	openPoisson shape = iota // independent requesters: seeded exponential gaps
	openBurst                // BurstSize tasks due at once every BurstEvery
	closedLoop               // Outstanding tasks kept in flight; next submit on each result
)

// workload is one named traffic mix. Names are fixed: later issues and
// BENCHMARK.json refer to them.
type workload struct {
	Name string

	Shape       shape
	Rate        float64       // tasks/s (openPoisson)
	BurstSize   int           // openBurst
	BurstEvery  time.Duration // openBurst
	Outstanding int           // closedLoop

	Workers  int
	ZeroExec bool // workers answer the moment the assignment arrives

	FixedDeadline time.Duration // 0 draws from the §V.C band (0.6–1.2 s compressed)
	TightEvery    int           // every n-th task ...
	TightFactor   float64       // ... gets this share of its drawn deadline

	Admission admission.Config
}

// workloads are the four mixes; README.md and BENCHMARK.json say why each
// exists and which layers it leans on.
var workloads = []workload{
	{
		Name:    "steady",
		Shape:   openPoisson,
		Rate:    320,
		Workers: 256,
	},
	{
		Name:          "capacity",
		Shape:         closedLoop,
		Outstanding:   128,
		Workers:       64,
		ZeroExec:      true,
		FixedDeadline: time.Second,
	},
	{
		Name:       "burst",
		Shape:      openBurst,
		BurstSize:  256,
		BurstEvery: 400 * time.Millisecond,
		Workers:    512,
	},
	{
		Name:        "overload",
		Shape:       openPoisson,
		Rate:        800,
		Workers:     64,
		TightEvery:  4,
		TightFactor: 0.35,
		// As `reactload -overload` self-hosts the plane, time constants
		// compressed like the deadlines are.
		Admission: admission.Config{
			ProbFloor:    0.5,
			MaxInflight:  128,
			ShedTarget:   5 * time.Millisecond,
			ShedInterval: 2 * time.Millisecond,
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.Name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// scaled shrinks the fleet and the offered load by div, keeping their
// ratio; the smoke test runs every workload at a tenth.
func (wl workload) scaled(div int) workload {
	if div <= 1 {
		return wl
	}
	shrink := func(n int) int {
		if n == 0 {
			return 0
		}
		return max(n/div, 2)
	}
	wl.Workers = shrink(wl.Workers)
	wl.Rate /= float64(div)
	wl.BurstSize = shrink(wl.BurstSize)
	wl.Outstanding = shrink(wl.Outstanding)
	wl.Admission.MaxInflight = shrink(wl.Admission.MaxInflight)
	return wl
}

// procs is the benchmark's GOMAXPROCS: min(nproc, 4), one process.
func procs() int { return min(runtime.NumCPU(), 4) }

// serverOptions is "reactd defaults, 100× compressed": what
// `reactd -data-dir … -admission` builds for its single region, with the
// human-scale periods divided by compress. The matcher is injected so the
// traced run can wrap it.
func serverOptions(wl workload, m matching.Matcher) core.Options {
	adm := wl.Admission // plane on; gates idle unless the workload sets them
	opts := core.Options{
		Matcher:       m,
		MonitorPeriod: time.Second / compress,
		BatchPoll:     200 * time.Millisecond / compress,
		QueueDepth:    8,
		Shards:        procs(),
		Retention:     retention,
		Schedule: schedule.Config{
			BatchBound:    10,
			BatchPeriod:   5 * time.Second / compress,
			EdgeProbBound: 0.1,
		},
		Admission: &adm,
	}
	opts.Monitor.Threshold = 0.1
	return opts
}
