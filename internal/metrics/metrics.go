// Package metrics provides the measurement primitives the experiment
// harnesses report with: atomic counters, streaming moments (Welford),
// bucketed histograms with quantile queries, and (x, y) series for the
// paper's cumulative curves (Figures 5 and 6). Everything is safe for
// concurrent use so the live (wall-clock) middleware can share the same
// instrumentation as the single-threaded simulator.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonic (or signed) event counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta (may be negative).
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Welford accumulates streaming mean and variance with Welford's method,
// plus min/max. The zero value is ready to use.
type Welford struct {
	mu       sync.Mutex
	n        int64
	mean, m2 float64
	min, max float64
}

// Observe records one sample.
func (w *Welford) Observe(x float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Count reports the number of samples.
func (w *Welford) Count() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// Mean reports the sample mean (0 with no samples).
func (w *Welford) Mean() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.mean
}

// Variance reports the unbiased sample variance (0 with <2 samples).
func (w *Welford) Variance() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std reports the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Variance()) }

// Min reports the smallest sample (0 with none).
func (w *Welford) Min() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.min
}

// Max reports the largest sample (0 with none).
func (w *Welford) Max() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.max
}

// Histogram counts samples into fixed-width buckets over [0, width·n) with
// an overflow bucket, and answers quantile queries by linear interpolation
// inside the winning bucket.
type Histogram struct {
	mu      sync.Mutex
	width   float64
	buckets []int64
	over    int64
	total   int64
	sum     float64
}

// NewHistogram creates a histogram with n buckets of the given width.
func NewHistogram(width float64, n int) (*Histogram, error) {
	if width <= 0 || n < 1 {
		return nil, fmt.Errorf("metrics: invalid histogram shape width=%v n=%d", width, n)
	}
	return &Histogram{width: width, buckets: make([]int64, n)}, nil
}

// Observe records one non-negative sample; negative samples clamp to 0.
func (h *Histogram) Observe(x float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if x < 0 {
		x = 0
	}
	i := int(x / h.width)
	if i >= len(h.buckets) {
		h.over++
	} else {
		h.buckets[i]++
	}
	h.total++
	h.sum += x
}

// Count reports total samples.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Quantile returns an estimate of the p-quantile (p in [0,1]). Samples in
// the overflow bucket report the histogram's upper bound. With no samples it
// returns 0.
func (h *Histogram) Quantile(p float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	target := p * float64(h.total)
	var cum float64
	for i, c := range h.buckets {
		next := cum + float64(c)
		if next >= target && c > 0 {
			frac := (target - cum) / float64(c)
			return (float64(i) + frac) * h.width
		}
		cum = next
	}
	return h.width * float64(len(h.buckets))
}

// Series is an ordered list of (x, y) points, e.g. "tasks received" vs
// "tasks finished before deadline" for Figure 5.
type Series struct {
	mu   sync.Mutex
	name string
	xs   []float64
	ys   []float64
}

// NewSeries names a series for CSV output.
func NewSeries(name string) *Series { return &Series{name: name} }

// Name reports the series label.
func (s *Series) Name() string { return s.name }

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.xs = append(s.xs, x)
	s.ys = append(s.ys, y)
}

// Len reports the number of points.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.xs)
}

// At returns point i.
func (s *Series) At(i int) (x, y float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.xs[i], s.ys[i]
}

// WriteCSV emits "name,x,y" rows.
func (s *Series) WriteCSV(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.xs {
		if _, err := fmt.Fprintf(w, "%s,%g,%g\n", s.name, s.xs[i], s.ys[i]); err != nil {
			return err
		}
	}
	return nil
}

// Downsample returns at most n points spread evenly across the series,
// always including the last point — enough to print a readable curve.
func (s *Series) Downsample(n int) [][2]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n <= 0 || len(s.xs) == 0 {
		return nil
	}
	if n > len(s.xs) {
		n = len(s.xs)
	}
	out := make([][2]float64, 0, n)
	step := float64(len(s.xs)-1) / float64(n-1)
	if n == 1 {
		step = 0
	}
	for i := 0; i < n; i++ {
		idx := int(math.Round(float64(i) * step))
		if idx >= len(s.xs) {
			idx = len(s.xs) - 1
		}
		out = append(out, [2]float64{s.xs[idx], s.ys[idx]})
	}
	return out
}

// Table renders aligned experiment rows; the harnesses print one table per
// figure.
type Table struct {
	mu     sync.Mutex
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// Write renders the table with aligned columns.
func (t *Table) Write(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) error {
		for i, c := range cells {
			pad := widths[i] - len(c)
			if i > 0 {
				if _, err := io.WriteString(w, "  "); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s%s", c, spaces(pad)); err != nil {
				return err
			}
		}
		_, err := io.WriteString(w, "\n")
		return err
	}
	if err := writeRow(t.header); err != nil {
		return err
	}
	return writeRowsSorted(t.rows, writeRow)
}

func writeRowsSorted(rows [][]string, emit func([]string) error) error {
	// Rows keep insertion order; sorting is left to callers that need it.
	for _, r := range rows {
		if err := emit(r); err != nil {
			return err
		}
	}
	return nil
}

func spaces(n int) string {
	if n <= 0 {
		return ""
	}
	const pad = "                                                                "
	if n <= len(pad) {
		return pad[:n]
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = ' '
	}
	return string(b)
}
