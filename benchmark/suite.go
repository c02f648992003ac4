package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// spec mirrors BENCHMARK.json, the one place metric directions, bounds and
// the run length are fixed.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const specFile = "BENCHMARK.json"

func loadSpec(path string) (spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return spec{}, fmt.Errorf("read %s (run from the repo root): %w", path, err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return spec{}, fmt.Errorf("parse %s: %w", path, err)
	}
	if s.RunSeconds <= 0 {
		return spec{}, fmt.Errorf("%s: run_seconds must be positive", path)
	}
	return s, nil
}

// child runs one workload in a process of its own — peak RSS is a
// process-lifetime high-water mark, so workloads must not share one —
// echoes its report and returns the parsed result line.
func child(workload string, seed int64, seconds, trace int, echo bool) (line, error) {
	cmd := exec.Command(os.Args[0],
		"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // waits for the child to end
	text := strings.TrimRight(string(out), "\n")
	cut := strings.LastIndexByte(text, '\n')
	if echo {
		fmt.Println(text[:max(cut, 0)])
	}
	if err != nil {
		if !echo {
			fmt.Fprintln(os.Stderr, text) // a failed run's report says why
		}
		return line{}, fmt.Errorf("%s seed %d trace %d: %w", workload, seed, trace, err)
	}
	var l line
	dec := json.NewDecoder(bytes.NewReader([]byte(text[cut+1:])))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&l); err != nil {
		return line{}, fmt.Errorf("%s seed %d trace %d: result line: %w", workload, seed, trace, err)
	}
	return l, nil
}

// suite runs every workload, untraced then traced, and returns the exit
// code. With repeat > 0 it is the A/A mode instead.
func suite(only string, seed int64, seconds, repeat int) int {
	s, err := loadSpec(specFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	if seconds <= 0 {
		seconds = s.RunSeconds
	}
	set := workloads
	if wl, ok := findWorkload(only); ok {
		set = []workload{wl}
	}
	if repeat > 0 {
		return aa(s, set, seed, seconds, repeat)
	}
	code := 0
	for _, wl := range set {
		for trace := 0; trace <= 1; trace++ {
			if _, err := child(wl.Name, seed, seconds, trace, true); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				code = 1
			}
		}
	}
	return code
}

// aa runs the untraced set repeat times, one seed each, and prints for
// every (metric, workload) its median, quartiles and spread — the
// inter-quartile distance as a share of the median, which is what the
// contract holds against the metric's bound.
func aa(s spec, set []workload, seed int64, seconds, repeat int) int {
	code := 0
	values := map[string]map[string][]float64{} // workload → metric → one value per run
	for _, wl := range set {
		values[wl.Name] = map[string][]float64{}
		for i := 0; i < repeat; i++ {
			l, err := child(wl.Name, seed+int64(i), seconds, 0, false)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				code = 1
				continue
			}
			fmt.Fprintf(os.Stderr, "%s seed %d done\n", wl.Name, seed+int64(i))
			for name, v := range l.Metrics {
				values[wl.Name][name] = append(values[wl.Name][name], v.Value)
			}
		}
	}
	fmt.Printf("A/A over %d runs per workload, seeds %d..%d, window %ds\n", repeat, seed, seed+int64(repeat)-1, seconds)
	fmt.Printf("%-10s %-16s %12s %12s %12s %8s %8s  %s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound", "verdict      values")
	for _, wl := range set {
		for _, m := range s.EndToEnd {
			vs := values[wl.Name][m.Name]
			if len(vs) < 2 {
				continue
			}
			q1, med, q3 := quartiles(vs)
			spread := (q3 - q1) / med
			verdict := "ok"
			switch {
			case m.Name == "setup_s": // its spread is not held against the bound
				verdict = "-"
			case spread > m.Bound:
				verdict = "OVER BOUND"
				code = 1
			case spread > m.Bound/3:
				verdict = "over a third"
			}
			fmt.Printf("%-10s %-16s %12.4f %12.4f %12.4f %8.4f %8.4f  %-12s %s\n",
				wl.Name, m.Name, q1, med, q3, spread, m.Bound, verdict, fmt.Sprintf("%.4g", vs))
		}
	}
	return code
}
