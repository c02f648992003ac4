package engine

import (
	"fmt"
	"testing"
	"time"

	"react/internal/clock"
	"react/internal/region"
	"react/internal/schedule"
	"react/internal/taskq"
)

// tickEngine builds an engine with a retention window, holding
// `live` tasks in workers' hands and `terminal` completed records inside
// the window, none of them due for anything: the state a maintenance tick
// finds almost every time it runs.
func tickEngine(tb testing.TB, live, terminal int) *Engine {
	tb.Helper()
	clk := clock.NewVirtual(testEpoch)
	eng := New(Config{Clock: clk, Retention: time.Hour}, Hooks{})
	for i := 0; i < live+terminal; i++ {
		task := testTask(fmt.Sprintf("t%05d", i), clk)
		if err := eng.Submit(task); err != nil {
			tb.Fatal(err)
		}
		if err := eng.Tasks().Assign(task.ID, "w"); err != nil {
			tb.Fatal(err)
		}
		if i < terminal {
			if _, err := eng.Tasks().Complete(task.ID); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return eng
}

var tickRetained = []int{0, 20000}

// BenchmarkTickRetained times one Tick with nothing due over 64 live tasks
// and {0, 20 000} retained terminal records. The two must read alike: a
// tick costs what is live or due, not what is retained.
func BenchmarkTickRetained(b *testing.B) {
	for _, terminal := range tickRetained {
		b.Run(fmt.Sprintf("terminal=%d", terminal), func(b *testing.B) {
			eng := tickEngine(b, 64, terminal)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Tick()
			}
		})
	}
}

// TestTickNothingDueAllocatesNothing is the benchmark's tier-1 form: the
// idle tick allocates nothing however many records are retained, and it
// leaves every record where it was.
func TestTickNothingDueAllocatesNothing(t *testing.T) {
	for _, terminal := range tickRetained {
		eng := tickEngine(t, 64, terminal)
		if allocs := testing.AllocsPerRun(100, eng.Tick); allocs != 0 {
			t.Errorf("%d terminal records: Tick allocates %.1f objects, want 0", terminal, allocs)
		}
		if u, a, c, e := eng.Tasks().Counts(); u != 0 || a != 64 || c != terminal || e != 0 {
			t.Errorf("%d terminal records: counts after ticks = %d/%d/%d/%d", terminal, u, a, c, e)
		}
	}
}

// BenchmarkRound times one scheduling round as the live engine runs it —
// plan (snapshot, Eq. 3 graph), match (Alg. 1 on the matcher's default
// RNG) and apply (bind and deliver) — at the benchmark's capacity round
// once kicked: 61 seasoned idle workers and 13 waiting tasks. Between
// rounds, off the clock, the bound tasks complete, retention drops them and
// 13 fresh tasks arrive.
func BenchmarkRound(b *testing.B) {
	const workers, tasks = 61, 13
	clk := clock.NewVirtual(testEpoch)
	var bound []taskq.Record
	eng := New(Config{
		Clock:     clk,
		Retention: time.Millisecond,
		Schedule:  schedule.Config{BatchBound: 10, BatchPeriod: time.Second},
	}, Hooks{Deliver: func(rec taskq.Record) bool {
		bound = append(bound, rec)
		return true
	}})
	for w := 0; w < workers; w++ {
		p, err := eng.AttachWorker(fmt.Sprintf("w%02d", w), region.Point{Lat: 38.0, Lon: 23.7})
		if err != nil {
			b.Fatal(err)
		}
		for i, exec := range []float64{1, 2, 3, 2, 1} {
			p.RecordCompletion("photo", exec, i != w%5)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < tasks; j++ {
			if err := eng.Submit(testTask(fmt.Sprintf("r%07d-%02d", i, j), clk)); err != nil {
				b.Fatal(err)
			}
		}
		bound = bound[:0]
		b.StartTimer()
		eng.tryBatch()
		b.StopTimer()
		if len(bound) != tasks {
			b.Fatalf("round %d bound %d of %d tasks", i, len(bound), tasks)
		}
		for _, rec := range bound {
			if _, err := eng.Complete(rec.Task.ID, rec.Worker); err != nil {
				b.Fatal(err)
			}
		}
		clk.Advance(2 * time.Millisecond)
		eng.Tick() // retention drops the completed tasks; nothing waits, so no round runs
		b.StartTimer()
	}
}
