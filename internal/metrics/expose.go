// Prometheus text exposition (version 0.0.4) for the measurement
// primitives in this package, plus the Registry every subsystem reports
// into. The live observability plane (internal/obs) serves a Registry at
// /metrics; nothing here depends on HTTP, so offline tools can render the
// same families to a file.
//
// The mapping is the conventional one:
//
//	Counter   → a single "counter" sample
//	GaugeFunc → a single "gauge" sample read at scrape time
//	Welford   → a "summary" family (_sum and _count)
//	Histogram → a "histogram" family (_bucket{le=...}, _sum, _count)
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Label is one name/value pair attached to a metric series. Several series
// may share a family name as long as their label sets differ (per-region
// engines).
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Exposer writes the sample lines of one metric series in Prometheus text
// exposition format. name is the family name; labels (possibly empty) are
// appended to every sample the series emits.
type Exposer interface {
	ExposeMetric(w io.Writer, name string, labels []Label) error
}

// GaugeFunc adapts a read-at-scrape-time function into an Exposer; the
// natural carrier for values the system already tracks elsewhere (queue
// depths, worker counts, engine counters held as atomics).
type GaugeFunc func() float64

// ExposeMetric writes one gauge sample.
func (g GaugeFunc) ExposeMetric(w io.Writer, name string, labels []Label) error {
	_, err := fmt.Fprintf(w, "%s%s %s\n", name, formatLabels(labels), formatFloat(g()))
	return err
}

// ExposeMetric writes one counter sample.
func (c *Counter) ExposeMetric(w io.Writer, name string, labels []Label) error {
	_, err := fmt.Fprintf(w, "%s%s %d\n", name, formatLabels(labels), c.Value())
	return err
}

// ExposeMetric writes the summary pair (_sum, _count) for the accumulated
// samples.
func (w *Welford) ExposeMetric(out io.Writer, name string, labels []Label) error {
	w.mu.Lock()
	n, sum := w.n, w.mean*float64(w.n)
	w.mu.Unlock()
	ls := formatLabels(labels)
	if _, err := fmt.Fprintf(out, "%s_sum%s %s\n", name, ls, formatFloat(sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(out, "%s_count%s %d\n", name, ls, n)
	return err
}

// ExposeMetric writes the cumulative bucket series, _sum, and _count.
// Bucket upper bounds are the histogram's fixed-width edges; the overflow
// bucket becomes le="+Inf".
func (h *Histogram) ExposeMetric(w io.Writer, name string, labels []Label) error {
	h.mu.Lock()
	cum := append([]int64(nil), h.buckets...)
	total, sum, width := h.total, h.sum, h.width
	h.mu.Unlock()
	les := make([]float64, len(cum))
	for i := range cum {
		les[i] = width * float64(i+1)
		if i > 0 {
			cum[i] += cum[i-1]
		}
	}
	return WriteHistogram(w, name, labels, les, cum, sum, total)
}

// WriteHistogram writes one histogram series: a _bucket sample per upper
// bound in les carrying the cumulative count in cum, the le="+Inf" bucket
// (count), then _sum and _count. It is the text form of every histogram
// the plane serves, whatever keeps the counts.
func WriteHistogram(w io.Writer, name string, labels []Label, les []float64, cum []int64, sum float64, count int64) error {
	bucket := func(le string, n int64) error {
		_, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name,
			formatLabels(append(append([]Label(nil), labels...), Label{"le", le})), n)
		return err
	}
	for i, le := range les {
		if err := bucket(formatFloat(le), cum[i]); err != nil {
			return err
		}
	}
	if err := bucket("+Inf", count); err != nil {
		return err
	}
	ls := formatLabels(labels)
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, ls, formatFloat(sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, ls, count)
	return err
}

// Metric kinds for Registry.Register; they become the "# TYPE" line.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindSummary   = "summary"
	KindHistogram = "histogram"
)

// series is one registered Exposer with its label set.
type series struct {
	labels []Label
	src    Exposer
}

// family groups every series sharing one metric name.
type family struct {
	help, kind string
	series     []series
}

// Registry is the instrumentation index the observability plane exposes:
// subsystems register their counters, gauges, summaries, and histograms
// once at startup, and WriteText renders a consistent snapshot on every
// scrape. Safe for concurrent use; registration during scraping is
// allowed (regions can spin up while the plane is live).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Register adds one series under name. The name and label keys must be
// valid Prometheus identifiers; registering the same name with a
// different kind, or the same name with an identical label set, is an
// error.
func (r *Registry) Register(name, help, kind string, src Exposer, labels ...Label) error {
	if !validMetricName(name) {
		return fmt.Errorf("metrics: invalid metric name %q", name)
	}
	switch kind {
	case KindCounter, KindGauge, KindSummary, KindHistogram:
	default:
		return fmt.Errorf("metrics: invalid kind %q for %q", kind, name)
	}
	for _, l := range labels {
		if !validLabelKey(l.Key) {
			return fmt.Errorf("metrics: invalid label key %q on %q", l.Key, name)
		}
	}
	if src == nil {
		return fmt.Errorf("metrics: nil source for %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{help: help, kind: kind}
		r.families[name] = f
	} else if f.kind != kind {
		return fmt.Errorf("metrics: %q already registered as %s, not %s", name, f.kind, kind)
	}
	key := labelKey(labels)
	for _, s := range f.series {
		if labelKey(s.labels) == key {
			return fmt.Errorf("metrics: duplicate series %s%s", name, formatLabels(labels))
		}
	}
	f.series = append(f.series, series{labels: append([]Label(nil), labels...), src: src})
	return nil
}

// RegisterCounter registers a Counter under name.
func (r *Registry) RegisterCounter(name, help string, c *Counter, labels ...Label) error {
	return r.Register(name, help, KindCounter, c, labels...)
}

// RegisterGauge registers a read-at-scrape-time gauge under name.
func (r *Registry) RegisterGauge(name, help string, f func() float64, labels ...Label) error {
	return r.Register(name, help, KindGauge, GaugeFunc(f), labels...)
}

// RegisterCounterFunc registers a read-at-scrape-time monotonic counter —
// for totals the system already keeps as atomics elsewhere.
func (r *Registry) RegisterCounterFunc(name, help string, f func() float64, labels ...Label) error {
	return r.Register(name, help, KindCounter, GaugeFunc(f), labels...)
}

// RegisterSummary registers a Welford accumulator under name.
func (r *Registry) RegisterSummary(name, help string, w *Welford, labels ...Label) error {
	return r.Register(name, help, KindSummary, w, labels...)
}

// RegisterHistogram registers a Histogram under name.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram, labels ...Label) error {
	return r.Register(name, help, KindHistogram, h, labels...)
}

// WriteText renders every family in Prometheus text exposition format,
// families sorted by name, series in registration order.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	// Snapshot the series lists so sources are read outside the registry
	// lock (a source must never re-enter the registry, but may take its
	// own locks).
	type fam struct {
		name string
		family
	}
	fams := make([]fam, 0, len(names))
	for _, name := range names {
		f := r.families[name]
		fams = append(fams, fam{name: name, family: family{
			help: f.help, kind: f.kind, series: append([]series(nil), f.series...),
		}})
	}
	r.mu.Unlock()

	for _, f := range fams {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, s := range f.series {
			if err := s.src.ExposeMetric(w, f.name, s.labels); err != nil {
				return err
			}
		}
	}
	return nil
}

// formatLabels renders {k="v",...}, empty string for no labels.
func formatLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// labelKey is a canonical identity for a label set (registration dedup).
func labelKey(labels []Label) string {
	return formatLabels(labels)
}

// formatFloat renders a sample value the way Prometheus expects: plain
// decimal, no exponent for the common cases, %g otherwise.
func formatFloat(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func validLabelKey(key string) bool {
	if key == "" {
		return false
	}
	for i, c := range key {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
