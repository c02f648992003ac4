package experiments

import "time"

// ScalePoint is one cell of the Figure 9/10 sweep: one technique at one
// (worker count, arrival rate) operating point.
type ScalePoint struct {
	Workers       int
	Rate          float64
	Technique     string
	Received      int
	OnTimePct     float64 // Fig. 9
	PositivePct   float64 // Fig. 10
	Reassignments int
	MeanExecSecs  float64
}

// ScaleConfig parameterizes the sweep. The paper pairs sizes with rates
// ("100, 250, 500, 750 and 1000 workers and the tasks are received with a
// rate of 1.5, 3.125, 6.25, 9.375 and 12.5 tasks per second respectively"),
// so Sizes[i] runs against Rates[i]. REACT keeps matching.DefaultCycles
// (1000) at every scale, as the paper does.
type ScaleConfig struct {
	Sizes []int
	Rates []float64
	Seed  int64
	// Span is the simulated submission window; each operating point
	// receives Rate×Span tasks so every cell covers the same virtual
	// duration. Defaults to the main experiment's ≈893 s (8371 tasks at
	// 9.375/s).
	Span time.Duration
}

// Normalize fills defaults.
func (c ScaleConfig) Normalize() ScaleConfig {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{100, 250, 500, 750, 1000}
	}
	if len(c.Rates) == 0 {
		c.Rates = []float64{1.5, 3.125, 6.25, 9.375, 12.5}
	}
	if c.Span <= 0 {
		c.Span = 893 * time.Second
	}
	if len(c.Rates) != len(c.Sizes) {
		// Pair up to the shorter list rather than guessing a cross product.
		n := min(len(c.Rates), len(c.Sizes))
		c.Rates = c.Rates[:n]
		c.Sizes = c.Sizes[:n]
	}
	return c
}

// RunScalability runs the three techniques at every operating point and
// returns the grid, REACT first within each point.
func RunScalability(cfg ScaleConfig) []ScalePoint {
	cfg = cfg.Normalize()
	var out []ScalePoint
	for i, size := range cfg.Sizes {
		rate := cfg.Rates[i]
		target := int(rate * cfg.Span.Seconds())
		for _, tech := range techniques(cfg.Seed) {
			res := RunScenario(ScenarioConfig{
				Technique:   tech,
				Workers:     size,
				Rate:        rate,
				TargetTasks: target,
				Seed:        cfg.Seed,
			})
			out = append(out, ScalePoint{
				Workers:       size,
				Rate:          rate,
				Technique:     res.Technique,
				Received:      res.Received,
				OnTimePct:     100 * res.OnTimeFraction(),
				PositivePct:   100 * res.PositiveFraction(),
				Reassignments: res.Reassignments,
				MeanExecSecs:  res.MeanWorkerExec,
			})
		}
	}
	return out
}
