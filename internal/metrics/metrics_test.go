package metrics

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-2)
	if got := c.Value(); got != 3 {
		t.Fatalf("Value = %d, want 3", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 16000 {
		t.Fatalf("Value = %d, want 16000", got)
	}
}

func TestWelfordKnownValues(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Observe(x)
	}
	if got := w.Mean(); got != 5 {
		t.Fatalf("Mean = %v, want 5", got)
	}
	// Unbiased variance of this classic set is 32/7.
	if got, want := w.Variance(), 32.0/7; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Variance = %v, want %v", got, want)
	}
	if w.Min() != 2 || w.Max() != 9 || w.Count() != 8 {
		t.Fatalf("min/max/count = %v/%v/%v", w.Min(), w.Max(), w.Count())
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.Std() != 0 {
		t.Fatal("empty Welford should report zeros")
	}
	w.Observe(3)
	if w.Mean() != 3 || w.Variance() != 0 {
		t.Fatalf("single-sample mean/var = %v/%v", w.Mean(), w.Variance())
	}
}

func TestQuickWelfordMatchesDirect(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		var w Welford
		var sum float64
		for _, r := range raw {
			w.Observe(float64(r))
			sum += float64(r)
		}
		mean := sum / float64(len(raw))
		var m2 float64
		for _, r := range raw {
			d := float64(r) - mean
			m2 += d * d
		}
		variance := m2 / float64(len(raw)-1)
		return math.Abs(w.Mean()-mean) < 1e-6 && math.Abs(w.Variance()-variance) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(0, 5); err == nil {
		t.Fatal("zero width accepted")
	}
	if _, err := NewHistogram(1, 0); err == nil {
		t.Fatal("zero buckets accepted")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h, err := NewHistogram(1, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Uniform 0..99: median ≈ 50, p90 ≈ 90.
	for i := 0; i < 100; i++ {
		h.Observe(float64(i) + 0.5)
	}
	if got := h.Quantile(0.5); math.Abs(got-50) > 1.5 {
		t.Fatalf("median = %v", got)
	}
	if got := h.Quantile(0.9); math.Abs(got-90) > 1.5 {
		t.Fatalf("p90 = %v", got)
	}
	if got := h.Quantile(0); got > 1.5 {
		t.Fatalf("p0 = %v", got)
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d", h.Count())
	}
}

func TestHistogramOverflowAndNegative(t *testing.T) {
	h, err := NewHistogram(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	h.Observe(-5) // clamps to bucket 0
	h.Observe(500)
	h.Observe(1000)
	if h.Count() != 3 {
		t.Fatalf("Count = %d", h.Count())
	}
	// With 2/3 of mass in overflow, the p99 reports the upper bound.
	if got := h.Quantile(0.99); got != 10 {
		t.Fatalf("overflow quantile = %v, want upper bound 10", got)
	}
	if got := h.Quantile(0.2); got > 1 {
		t.Fatalf("low quantile = %v", got)
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	h, _ := NewHistogram(1, 4)
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v", got)
	}
}

func TestSeriesBasics(t *testing.T) {
	s := NewSeries("deadline-met")
	for i := 0; i < 10; i++ {
		s.Add(float64(i), float64(i*i))
	}
	if s.Len() != 10 {
		t.Fatalf("Len = %d", s.Len())
	}
	if x, y := s.At(3); x != 3 || y != 9 {
		t.Fatalf("At(3) = %v,%v", x, y)
	}
	if s.Name() != "deadline-met" {
		t.Fatalf("Name = %q", s.Name())
	}
}

func TestSeriesCSV(t *testing.T) {
	s := NewSeries("s")
	s.Add(1, 2)
	s.Add(3, 4)
	var b strings.Builder
	if err := s.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "s,1,2\ns,3,4\n"
	if b.String() != want {
		t.Fatalf("CSV = %q, want %q", b.String(), want)
	}
}

func TestSeriesDownsample(t *testing.T) {
	s := NewSeries("s")
	for i := 0; i < 100; i++ {
		s.Add(float64(i), float64(i))
	}
	pts := s.Downsample(5)
	if len(pts) != 5 {
		t.Fatalf("Downsample(5) len = %d", len(pts))
	}
	if pts[0][0] != 0 || pts[4][0] != 99 {
		t.Fatalf("endpoints = %v, %v", pts[0], pts[4])
	}
	for i := 1; i < len(pts); i++ {
		if pts[i][0] <= pts[i-1][0] {
			t.Fatalf("downsampled xs not increasing: %v", pts)
		}
	}
	if got := s.Downsample(0); got != nil {
		t.Fatalf("Downsample(0) = %v", got)
	}
	if got := s.Downsample(1000); len(got) != 100 {
		t.Fatalf("oversized Downsample len = %d", len(got))
	}
	one := NewSeries("one")
	one.Add(5, 6)
	if got := one.Downsample(3); len(got) != 1 || got[0] != [2]float64{5, 6} {
		t.Fatalf("single-point downsample = %v", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("algo", "tasks", "weight")
	tb.AddRow("react", 1000, 812.25)
	tb.AddRow("greedy", 10, 9.5)
	var b strings.Builder
	if err := tb.Write(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("rendered %d lines: %q", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "algo") || !strings.Contains(lines[1], "812.250") {
		t.Fatalf("unexpected render:\n%s", out)
	}
	// Columns align: "tasks" column starts at the same offset in each line.
	idx := strings.Index(lines[0], "tasks")
	if !strings.HasPrefix(lines[1][idx:], "1000") {
		t.Fatalf("columns misaligned:\n%s", out)
	}
}

// TestTableWriteReleasesLock: Write renders a copy taken under the lock
// and writes it after releasing the lock, so a writer that adds a row to
// the same table neither deadlocks nor shows up in this rendering.
func TestTableWriteReleasesLock(t *testing.T) {
	tb := NewTable("k")
	tb.AddRow("a")
	w := &rowAddingWriter{tb: tb}
	done := make(chan error, 1)
	go func() { done <- tb.Write(w) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Write held the table lock while writing")
	}
	if got := w.b.String(); got != "k\na\n" {
		t.Fatalf("rendered %q, want the rows as of the call", got)
	}
	w.b.Reset()
	if err := tb.Write(&w.b); err != nil || w.b.String() != "k   \na   \nlate\n" {
		t.Fatalf("second render = %q, %v", w.b.String(), err)
	}
}

// rowAddingWriter adds a row to its table on its first write.
type rowAddingWriter struct {
	tb    *Table
	b     strings.Builder
	added bool
}

func (w *rowAddingWriter) Write(p []byte) (int, error) {
	if !w.added {
		w.added = true
		w.tb.AddRow("late")
	}
	return w.b.Write(p)
}

func TestSeriesConcurrent(t *testing.T) {
	s := NewSeries("c")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.Add(float64(i), float64(i))
				s.Len()
			}
		}()
	}
	wg.Wait()
	if s.Len() != 4000 {
		t.Fatalf("Len = %d, want 4000", s.Len())
	}
}
