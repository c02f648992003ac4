package main

import (
	"bytes"
	"math"
	"sync"
	"testing"
	"time"
)

// Two generations from one seed are byte-identical, and another seed
// gives other inputs: the server receives nothing that --seed does not fix.
func TestInputsComeFromTheSeed(t *testing.T) {
	for _, wl := range workloads {
		render := func(seed int64) []byte {
			var b bytes.Buffer
			if err := writeInputs(&b, wl, seed, 500, 16); err != nil {
				t.Fatal(err)
			}
			return b.Bytes()
		}
		a, again, other := render(7), render(7), render(8)
		if len(a) == 0 {
			t.Fatalf("%s: no inputs generated", wl.Name)
		}
		if !bytes.Equal(a, again) {
			t.Errorf("%s: two generations from seed 7 differ", wl.Name)
		}
		if bytes.Equal(a, other) {
			t.Errorf("%s: seeds 7 and 8 generate the same inputs", wl.Name)
		}
	}
}

// The quartile rule is the contract's: Python's
// statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	for _, c := range []struct{ got, want float64 }{{q1, 2.75}, {med, 5.5}, {q3, 8.25}} {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
		}
	}
}

// Every workload, at a one-second window and a tenth of the fleet, with
// the taps off and on: the checker is green, and what is emitted is what
// BENCHMARK.json names, unit for unit. The runs mostly wait (warm-up,
// window, drain), so they all go at once rather than two at a time as
// t.Parallel would pace them on a two-processor box.
func TestSmoke(t *testing.T) {
	s, err := loadSpec("../" + specFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("%s names %d workloads, the benchmark has %d", specFile, len(s.Workloads), len(workloads))
	}
	type smoke struct {
		name string
		want []metricSpec
		res  result
		err  error
	}
	var runs []*smoke
	var wg sync.WaitGroup
	for i, wl := range workloads {
		if s.Workloads[i].Name != wl.Name {
			t.Errorf("%s workload %d is %q, the benchmark's is %q", specFile, i, s.Workloads[i].Name, wl.Name)
		}
		for _, traced := range []bool{false, true} {
			sm := &smoke{name: wl.Name + "/untraced", want: s.EndToEnd}
			if traced {
				sm.name, sm.want = wl.Name+"/traced", s.PerLayer
			}
			runs = append(runs, sm)
			p := params{
				wl:      wl.scaled(10),
				seed:    7,
				window:  time.Second,
				warmup:  500 * time.Millisecond,
				traced:  traced,
				scratch: t.TempDir(),
				outDir:  t.TempDir(),
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				sm.res, sm.err = execute(p)
			}()
		}
	}
	wg.Wait()
	for _, sm := range runs {
		t.Run(sm.name, func(t *testing.T) {
			if sm.err != nil {
				t.Fatal(sm.err)
			}
			if sm.res.failed != 0 {
				t.Errorf("%d of %d operations failed: %v", sm.res.failed, sm.res.attempted, sm.res.notes)
			}
			got := map[string]string{}
			for _, m := range sm.res.metrics {
				if m.unit == "" {
					t.Errorf("metric %s has no unit", m.name)
				}
				if _, dup := got[m.name]; dup {
					t.Errorf("metric %s emitted twice", m.name)
				}
				got[m.name] = m.unit
			}
			for _, m := range sm.want {
				if unit, ok := got[m.Name]; !ok {
					t.Errorf("%s names %s, the run did not emit it", specFile, m.Name)
				} else if unit != m.Unit {
					t.Errorf("%s: unit %q emitted, %s says %q", m.Name, unit, specFile, m.Unit)
				}
				delete(got, m.Name)
			}
			for name := range got {
				t.Errorf("the run emitted %s, %s does not name it", name, specFile)
			}
		})
	}
}
