package obs

import (
	"io"
	"math"
	rtmetrics "runtime/metrics"
	"sort"

	"react/internal/metrics"
)

// RegisterRuntime exposes the Go runtime's own view of the process, read
// from runtime/metrics at scrape time. Two latency histograms: the
// stop-the-world pause of each garbage collection, and scheduler latency —
// how long a runnable goroutine waited for a thread. The engine starts a
// round as soon as a submit or a release kicks its live loop, so
// scheduler latency is the floor under a task's queue wait; these two tell
// an operator whether a slow round start was the runtime's. And two
// gauges: live goroutines, and the bytes in heap objects and goroutine
// stacks, which divided by react_wire_connections_active give what each
// connection costs.
func RegisterRuntime(reg *metrics.Registry, labels ...metrics.Label) error {
	for _, h := range []struct {
		family, help string
		sample       runtimeHistogram
	}{
		{"react_go_gc_pause_seconds", "stop-the-world pause of each garbage collection (runtime/metrics)", "/sched/pauses/total/gc:seconds"},
		{"react_go_sched_latency_seconds", "time a runnable goroutine waited before it ran (runtime/metrics)", "/sched/latencies:seconds"},
	} {
		if err := reg.Register(h.family, h.help, metrics.KindHistogram, h.sample, labels...); err != nil {
			return err
		}
	}
	for _, g := range []struct {
		family, help, class, sample string
	}{
		{"react_go_goroutines", "live goroutines (runtime/metrics)", "", "/sched/goroutines:goroutines"},
		{"react_go_memory_bytes", "bytes in one class of Go memory (runtime/metrics)", "heap_objects", "/memory/classes/heap/objects:bytes"},
		{"react_go_memory_bytes", "bytes in one class of Go memory (runtime/metrics)", "stacks", "/memory/classes/heap/stacks:bytes"},
	} {
		ls := labels
		if g.class != "" {
			ls = append(append([]metrics.Label(nil), labels...), metrics.L("class", g.class))
		}
		if err := reg.RegisterGauge(g.family, g.help, runtimeGauge(g.sample), ls...); err != nil {
			return err
		}
	}
	return nil
}

// runtimeGauge reads one Uint64 runtime metric; a name the running Go
// version does not know reads 0.
func runtimeGauge(name string) func() float64 {
	return func() float64 {
		sample := []rtmetrics.Sample{{Name: name}}
		rtmetrics.Read(sample)
		if sample[0].Value.Kind() != rtmetrics.KindUint64 {
			return 0
		}
		return float64(sample[0].Value.Uint64())
	}
}

// runtimeBounds are the upper bounds a runtime histogram is folded onto:
// 1 µs to 10 s in 1-2-5 steps. The runtime's own buckets are far finer
// (hundreds per histogram); an operator needs the order of magnitude.
var runtimeBounds = []float64{
	1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4,
	1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 0.1, 0.2, 0.5, 1, 2, 5, 10,
}

// runtimeHistogram is the runtime/metrics name of one Float64Histogram,
// exposed as a Prometheus histogram. A runtime bucket counts under the
// first bound at or above its upper edge, so le is never understated; the
// runtime keeps no sum, so _sum adds each bucket's midpoint per sample.
// A name the running Go version does not know exposes an empty histogram.
type runtimeHistogram string

// ExposeMetric reads the histogram and writes it.
func (name runtimeHistogram) ExposeMetric(w io.Writer, family string, labels []metrics.Label) error {
	sample := []rtmetrics.Sample{{Name: string(name)}}
	rtmetrics.Read(sample)
	cum := make([]int64, len(runtimeBounds))
	var count int64
	var sum float64
	if sample[0].Value.Kind() == rtmetrics.KindFloat64Histogram {
		h := sample[0].Value.Float64Histogram()
		for i, c := range h.Counts {
			if c == 0 {
				continue
			}
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			count += int64(c)
			sum += float64(c) * midpoint(lo, hi)
			if j := sort.SearchFloat64s(runtimeBounds, hi); j < len(cum) {
				cum[j] += int64(c)
			}
		}
	}
	for i := 1; i < len(cum); i++ {
		cum[i] += cum[i-1]
	}
	return metrics.WriteHistogram(w, family, labels, runtimeBounds, cum, sum, count)
}

// midpoint is a runtime bucket's representative value; an infinite edge
// gives way to the finite one.
func midpoint(lo, hi float64) float64 {
	switch {
	case math.IsInf(lo, -1):
		return math.Max(hi, 0)
	case math.IsInf(hi, 1):
		return lo
	}
	return (lo + hi) / 2
}
