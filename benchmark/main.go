// Command benchmark is the repo's yardstick: it drives live
// submit→assign→complete traffic through an in-process region server built
// the way `reactd -data-dir … -admission` builds one (journal on, admission
// plane on, REACT matcher, loopback TCP) and reports what a user of the
// system would see, plus — in a separate traced run — where each layer
// spent the time. README.md in this directory says why each workload and
// metric exists; BENCHMARK.json at the repo root names them for the driver.
//
// Usage (from the repo root; run.sh builds and forwards its arguments):
//
//	bash benchmark/run.sh --workload steady --seed 7 --seconds 16 --trace 0
//	bash benchmark/run.sh --seed 7            # every workload, untraced then traced
//	bash benchmark/run.sh --seed 7 --repeat 10  # A/A: spreads against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"react/internal/clock"
)

// wall is the one timebase of the benchmark: every timestamp and every
// pause goes through it (reactlint's clock discipline).
var wall clock.System

func main() {
	name := flag.String("workload", "", "workload to run (steady|capacity|burst|overload); empty runs them all, each in its own process")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 0, "measured window in seconds (default: run_seconds from BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1 runs with the taps on and reports the per-layer metrics instead")
	repeat := flag.Int("repeat", 0, "A/A mode: run the untraced set this many times on consecutive seeds and print each metric's spread against its bound")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	runtime.GOMAXPROCS(procs())

	wl, ok := findWorkload(*name)
	if !ok && *name != "" {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *name == "" || *repeat > 0 {
		os.Exit(suite(*name, *seed, *seconds, *repeat))
	}
	if *seconds <= 0 {
		spec, err := loadSpec(specFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(2)
		}
		*seconds = spec.RunSeconds
	}
	p := params{
		wl:      wl,
		seed:    *seed,
		window:  time.Duration(*seconds) * time.Second,
		warmup:  warmup,
		traced:  *trace != 0,
		scratch: scratchRoot,
		outDir:  traceDir,
	}
	res, err := execute(p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", wl.Name, err)
		os.Exit(1)
	}
	fmt.Printf("workload=%s seed=%d trace=%d window=%v warmup=%v GOMAXPROCS=%d\n",
		wl.Name, p.seed, *trace, p.window, p.warmup, procs())
	for _, m := range res.metrics {
		if m.n > 0 {
			fmt.Printf("  %-34s %14.4f %-8s (n=%d)\n", m.name, m.value, m.unit, m.n)
		} else {
			fmt.Printf("  %-34s %14.4f %s\n", m.name, m.value, m.unit)
		}
	}
	for _, note := range res.notes {
		fmt.Printf("  # %s\n", note)
	}
	fmt.Printf("  attempted_ops=%d failed_ops=%d\n", res.attempted, res.failed)
	correct := res.failed == 0 && res.valid
	if err := printResult(res, correct); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	if !correct {
		os.Exit(1)
	}
}

// line is the contract's result object, the last line of standard output.
type line struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]lineValue `json:"metrics"`
}

type lineValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResult(res result, correct bool) error {
	out := line{Correct: correct, Attempted: max(res.attempted, 1), Failed: res.failed, Metrics: map[string]lineValue{}}
	for _, m := range res.metrics {
		out.Metrics[m.name] = lineValue{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encode result (a metric is NaN or infinite): %w", err)
	}
	_, err = fmt.Println(string(b))
	return err
}
