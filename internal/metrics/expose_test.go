package metrics

import (
	"strings"
	"testing"
)

func TestCounterExposition(t *testing.T) {
	reg := NewRegistry()
	var c Counter
	c.Add(42)
	if err := reg.RegisterCounter("react_tasks_total", "tasks seen", &c); err != nil {
		t.Fatal(err)
	}
	out := render(t, reg)
	want := "# HELP react_tasks_total tasks seen\n# TYPE react_tasks_total counter\nreact_tasks_total 42\n"
	if out != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", out, want)
	}
}

func TestGaugeAndLabels(t *testing.T) {
	reg := NewRegistry()
	v := 1.5
	err := reg.RegisterGauge("react_depth", "queue depth", func() float64 { return v },
		L("shard", "0"), L("state", "unassigned"))
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterGauge("react_depth", "queue depth", func() float64 { return 7 },
		L("shard", "1"), L("state", "unassigned")); err != nil {
		t.Fatal(err)
	}
	out := render(t, reg)
	for _, want := range []string{
		"# TYPE react_depth gauge",
		`react_depth{shard="0",state="unassigned"} 1.5`,
		`react_depth{shard="1",state="unassigned"} 7`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing line %q in:\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE react_depth") != 1 {
		t.Errorf("TYPE line must appear once per family:\n%s", out)
	}
}

func TestWelfordSummaryExposition(t *testing.T) {
	reg := NewRegistry()
	var w Welford
	w.Observe(1)
	w.Observe(2)
	w.Observe(3)
	if err := reg.RegisterSummary("react_batch_size", "", &w); err != nil {
		t.Fatal(err)
	}
	out := render(t, reg)
	for _, want := range []string{
		"# TYPE react_batch_size summary",
		"react_batch_size_sum 6",
		"react_batch_size_count 3",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing line %q in:\n%s", want, out)
		}
	}
}

func TestHistogramExposition(t *testing.T) {
	reg := NewRegistry()
	h, err := NewHistogram(0.5, 2) // buckets [0,0.5) [0.5,1.0), then +Inf
	if err != nil {
		t.Fatal(err)
	}
	h.Observe(0.1)
	h.Observe(0.6)
	h.Observe(0.7)
	h.Observe(5) // overflow
	if err := reg.RegisterHistogram("react_latency_seconds", "matcher latency", h); err != nil {
		t.Fatal(err)
	}
	out := render(t, reg)
	for _, want := range []string{
		"# TYPE react_latency_seconds histogram",
		`react_latency_seconds_bucket{le="0.5"} 1`,
		`react_latency_seconds_bucket{le="1"} 3`,
		`react_latency_seconds_bucket{le="+Inf"} 4`,
		"react_latency_seconds_sum 6.4",
		"react_latency_seconds_count 4",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing line %q in:\n%s", want, out)
		}
	}
}

func TestHistogramSumTracksClamp(t *testing.T) {
	h, err := NewHistogram(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	h.Observe(-3) // clamps to 0
	h.Observe(2)
	var b strings.Builder
	if err := h.ExposeMetric(&b, "h", nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "h_sum 2\n") {
		t.Fatalf("want h_sum 2 (negative samples clamp to 0) in:\n%s", b.String())
	}
}

func TestRegisterRejectsBadInput(t *testing.T) {
	reg := NewRegistry()
	var c Counter
	if err := reg.RegisterCounter("0bad", "", &c); err == nil {
		t.Error("numeric-leading name accepted")
	}
	if err := reg.RegisterCounter("bad-name", "", &c); err == nil {
		t.Error("dash in name accepted")
	}
	if err := reg.Register("x", "", "nonsense", &c); err == nil {
		t.Error("invalid kind accepted")
	}
	if err := reg.Register("x", "", KindCounter, nil); err == nil {
		t.Error("nil source accepted")
	}
	if err := reg.RegisterCounter("ok_name", "", &c, L("bad-key", "v")); err == nil {
		t.Error("invalid label key accepted")
	}
}

func TestRegisterRejectsConflicts(t *testing.T) {
	reg := NewRegistry()
	var c Counter
	if err := reg.RegisterCounter("react_x", "", &c); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterGauge("react_x", "", func() float64 { return 0 }); err == nil {
		t.Error("same name with different kind accepted")
	}
	if err := reg.RegisterCounter("react_x", "", &c); err == nil {
		t.Error("duplicate series (same name, same labels) accepted")
	}
	if err := reg.RegisterCounter("react_x", "", &c, L("region", "a")); err != nil {
		t.Errorf("distinct label set rejected: %v", err)
	}
}

func TestLabelValueEscaping(t *testing.T) {
	reg := NewRegistry()
	var c Counter
	if err := reg.RegisterCounter("react_esc", "", &c, L("id", "a\"b\\c\nd")); err != nil {
		t.Fatal(err)
	}
	out := render(t, reg)
	if !strings.Contains(out, `react_esc{id="a\"b\\c\nd"} 0`) {
		t.Errorf("label value not escaped:\n%s", out)
	}
}

func TestFamiliesSortedByName(t *testing.T) {
	reg := NewRegistry()
	var a, b Counter
	if err := reg.RegisterCounter("react_zz", "", &a); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterCounter("react_aa", "", &b); err != nil {
		t.Fatal(err)
	}
	out := render(t, reg)
	if strings.Index(out, "react_aa") > strings.Index(out, "react_zz") {
		t.Errorf("families not sorted:\n%s", out)
	}
}

func render(t *testing.T, reg *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}
