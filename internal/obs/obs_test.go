package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"react/internal/clock"
	"react/internal/engine"
	"react/internal/metrics"
	"react/internal/region"
	"react/internal/schedule"
	"react/internal/taskq"
)

// newTestEngine builds a virtual-clock engine with one registered worker
// and one submitted task, a scheduling round already run, and the
// collector attached to the event spine.
func newTestEngine(t *testing.T) (*engine.Engine, *clock.Virtual, *EngineCollector) {
	t.Helper()
	clk := clock.NewVirtual(clock.Epoch)
	col := NewEngineCollector()
	eng := engine.New(engine.Config{
		Clock:    clk,
		Shards:   2,
		Schedule: schedule.Config{BatchBound: 1},
	}, engine.Hooks{})
	col.Attach(eng)
	if _, err := eng.AttachWorker("w1", region.Point{}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Submit(taskq.Task{
		ID:        "t1",
		Deadline:  clk.Now().Add(time.Hour),
		Reward:    1,
		Category:  "ocr",
		Submitted: clk.Now(),
	}); err != nil {
		t.Fatal(err)
	}
	eng.TryBatch()
	return eng, clk, col
}

func newTestServer(t *testing.T, eng *engine.Engine, clk clock.Clock, col *EngineCollector) *Server {
	t.Helper()
	reg := metrics.NewRegistry()
	if err := col.Register(reg, eng, metrics.L("region", "all")); err != nil {
		t.Fatal(err)
	}
	return NewServer(Options{
		Clock:    clk,
		Registry: reg,
		Regions:  func() []Source { return []Source{{ID: "all", Engine: eng}} },
	})
}

func get(t *testing.T, h http.Handler, url string) (int, string) {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr.Code, rr.Body.String()
}

func TestMetricsEndpoint(t *testing.T) {
	eng, clk, col := newTestEngine(t)
	srv := newTestServer(t, eng, clk, col)

	code, body := get(t, srv.Handler(), "/metrics")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for _, want := range []string{
		`react_engine_tasks_received_total{region="all"} 1`,
		`react_engine_batches_total{region="all"} 1`,
		`# TYPE react_engine_matcher_latency_seconds histogram`,
		`react_engine_matcher_latency_seconds_count{region="all"} 1`,
		`react_taskq_unassigned_highwater{region="all",shard=`,
		`react_workers_known{region="all"} 1`,
		`# HELP react_engine_reassign_eq2_total`,
		`# TYPE react_deadline_miss_total counter`,
		`react_deadline_miss_total{region="all",cause="expired-in-queue"} 0`,
		`react_deadline_miss_total{region="all",cause="late-never-rescued"} 0`,
		`react_deadline_miss_total{region="all",cause="late-despite-rescue"} 0`,
		`react_deadline_miss_total{region="all",cause="expired-despite-rescue"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in exposition:\n%s", want, body)
		}
	}
}

func TestMetricsWithoutRegistry(t *testing.T) {
	srv := NewServer(Options{Clock: clock.NewVirtual(clock.Epoch)})
	if code, _ := get(t, srv.Handler(), "/metrics"); code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", code)
	}
}

func TestReassignCounters(t *testing.T) {
	eng, clk, col := newTestEngine(t)
	// The split is read off the engine's ledger at scrape time: bounce t1
	// between the pool and w1 once per cause.
	store := eng.Tasks()
	store.Unassign("t1", taskq.CauseEq2, 0.42) // newTestEngine's round bound it
	for _, cause := range []string{taskq.CauseDetach, taskq.CauseDetach, taskq.CauseRecoverySweep} {
		if err := store.Assign("t1", "w1"); err != nil {
			t.Fatal(err)
		}
		if err := store.Unassign("t1", cause, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Back in the pool after four attempts, t1 then dies at its deadline.
	clk.Advance(2 * time.Hour)
	eng.TickExpiry()
	srv := newTestServer(t, eng, clk, col)
	_, body := get(t, srv.Handler(), "/metrics")
	// Causes outside the two exported ones count only toward the total.
	for _, want := range []string{
		`react_engine_reassign_eq2_total{region="all"} 1`,
		`react_engine_reassign_detach_total{region="all"} 2`,
		`react_engine_tasks_reassigned_total{region="all"} 4`,
		`react_deadline_miss_total{region="all",cause="expired-despite-rescue"} 1`,
		`react_deadline_miss_total{region="all",cause="expired-in-queue"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in exposition:\n%s", want, body)
		}
	}
}

func TestStatuszEndpoint(t *testing.T) {
	eng, clk, col := newTestEngine(t)
	// Give the worker enough history for a power-law fit.
	p, _ := eng.Workers().Get("w1")
	for i := 1; i <= 4; i++ {
		p.RecordCompletion("ocr", float64(i)*10, i%2 == 0)
	}
	srv := newTestServer(t, eng, clk, col)
	clk.Advance(90 * time.Second)

	code, body := get(t, srv.Handler(), "/statusz")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var st Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("statusz is not JSON: %v\n%s", err, body)
	}
	if st.UptimeSeconds != 90 {
		t.Errorf("uptime %v, want 90", st.UptimeSeconds)
	}
	if len(st.Regions) != 1 {
		t.Fatalf("regions %d", len(st.Regions))
	}
	r := st.Regions[0]
	if r.ID != "all" || r.Engine.Received != 1 || r.WorkersKnown != 1 {
		t.Errorf("region snapshot wrong: %+v", r)
	}
	if len(r.Shards) != 2 {
		t.Errorf("shards %d, want 2", len(r.Shards))
	}
	if len(r.Workers) != 1 {
		t.Fatalf("workers %d", len(r.Workers))
	}
	w := r.Workers[0]
	if w.ID != "w1" || w.Finished != 4 || w.FitSamples != 4 {
		t.Errorf("worker snapshot wrong: %+v", w)
	}
	if w.Accuracy == nil || *w.Accuracy != 0.5 {
		t.Errorf("accuracy = %v, want 0.5", w.Accuracy)
	}
	if w.Model == nil || w.Model.Alpha <= 1 || w.Model.N != 4 {
		t.Errorf("model = %+v", w.Model)
	}
}

func TestStatuszWorkerLimit(t *testing.T) {
	clk := clock.NewVirtual(clock.Epoch)
	eng := engine.New(engine.Config{Clock: clk}, engine.Hooks{})
	for i := 0; i < 5; i++ {
		if _, err := eng.AttachWorker(fmt.Sprintf("w%02d", i), region.Point{}); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer(Options{
		Clock:   clk,
		Regions: func() []Source { return []Source{{ID: "all", Engine: eng}} },
	})

	_, body := get(t, srv.Handler(), "/statusz?workers=2")
	var st Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	r := st.Regions[0]
	if r.WorkersShown != 2 || r.WorkersElided != 3 || len(r.Workers) != 2 {
		t.Errorf("limit not applied: shown=%d elided=%d rows=%d", r.WorkersShown, r.WorkersElided, len(r.Workers))
	}

	if code, _ := get(t, srv.Handler(), "/statusz?workers=x"); code != http.StatusBadRequest {
		t.Errorf("bad workers param: status %d, want 400", code)
	}

	// 0 means "all".
	_, body = get(t, srv.Handler(), "/statusz?workers=0")
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Regions[0].WorkersShown != 5 {
		t.Errorf("workers=0 should show all, got %d", st.Regions[0].WorkersShown)
	}
}

func TestPprofIndex(t *testing.T) {
	srv := NewServer(Options{Clock: clock.NewVirtual(clock.Epoch)})
	code, body := get(t, srv.Handler(), "/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index missing profiles:\n%.200s", body)
	}
}

func TestIndexRoutes(t *testing.T) {
	srv := NewServer(Options{Clock: clock.NewVirtual(clock.Epoch)})
	if code, body := get(t, srv.Handler(), "/"); code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Fatalf("index: %d %q", code, body)
	}
	if code, _ := get(t, srv.Handler(), "/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown path should 404, got %d", code)
	}
}

func TestStartShutdown(t *testing.T) {
	srv := NewServer(Options{
		Clock: clock.System{},
		Logf:  t.Logf,
	})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err == nil {
		t.Fatal("second Start should fail")
	}
	addr := srv.Addr()
	if addr == "" {
		t.Fatal("no bound address")
	}

	resp, err := http.Get("http://" + addr + "/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/"); err == nil {
		t.Fatal("server still serving after Shutdown")
	}
	// Shutdown again is a no-op.
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}
