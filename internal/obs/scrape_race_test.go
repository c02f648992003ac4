package obs

// This file is the observability plane's concurrency gate: it scrapes
// /metrics and /statusz from a live in-process server while loadgen
// traffic is running, so `go test -race ./internal/obs` exercises every
// collector read path against the engine's write paths.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"react/internal/clock"
	"react/internal/engine"
	"react/internal/loadgen"
	"react/internal/metrics"
	"react/internal/schedule"
	"react/internal/wire"
)

func TestScrapeUnderLoad(t *testing.T) {
	col := NewEngineCollector()
	ws, err := wire.Serve("127.0.0.1:0", engine.Config{
		BatchPoll:     5 * time.Millisecond,
		MonitorPeriod: 20 * time.Millisecond,
		Schedule:      schedule.Config{BatchBound: 3, BatchPeriod: 20 * time.Millisecond},
		Monitor:       engine.Monitor{Threshold: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ws.Close() })
	col.Attach(ws.Core().Engine())

	reg := metrics.NewRegistry()
	if err := col.Register(reg, ws.Core().Engine(), metrics.L("region", "all")); err != nil {
		t.Fatal(err)
	}
	if err := RegisterWireServer(reg, ws); err != nil {
		t.Fatal(err)
	}
	obs := NewServer(Options{
		Clock:    clock.System{},
		Registry: reg,
		Regions:  func() []Source { return []Source{{ID: "all", Engine: ws.Core().Engine()}} },
		Logf:     t.Logf,
	})
	if err := obs.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := obs.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	base := "http://" + obs.Addr()

	// Drive real traffic through the wire protocol in the background.
	loadDone := make(chan error, 1)
	go func() {
		_, err := loadgen.Run(loadgen.Config{
			Addr:     ws.Addr(),
			Workers:  8,
			Rate:     5,
			Tasks:    30,
			Seed:     11,
			Compress: 200,
		})
		loadDone <- err
	}()

	// Scrape both endpoints continuously until the load finishes.
	scrapes := 0
	for done := false; !done; {
		select {
		case err := <-loadDone:
			if err != nil {
				t.Fatalf("loadgen: %v", err)
			}
			done = true
		default:
			scrapeMetrics(t, base)
			scrapeStatusz(t, base)
			scrapes++
		}
	}
	if scrapes == 0 {
		t.Fatal("load finished before a single scrape")
	}

	// A final scrape after traffic must show the work that happened.
	body := scrapeMetrics(t, base)
	for _, want := range []string{
		`react_engine_tasks_received_total{region="all"} 30`,
		`react_wire_connections_total `,
		`react_engine_matcher_latency_seconds_count`,
		`react_wire_bytes_written_total `,
		`react_wire_flushes_total `,
		`react_wire_frames_per_flush_count`,
		`react_wire_flush_latency_seconds_count`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("final exposition missing %q", want)
		}
	}
	st := scrapeStatusz(t, base)
	if len(st.Regions) != 1 || st.Regions[0].Engine.Received != 30 {
		t.Errorf("final statusz wrong: %+v", st.Regions)
	}
}

func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("scrape /metrics: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read /metrics: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d: %s", resp.StatusCode, b)
	}
	return string(b)
}

func scrapeStatusz(t *testing.T, base string) Status {
	t.Helper()
	resp, err := http.Get(base + "/statusz?workers=5")
	if err != nil {
		t.Fatalf("scrape /statusz: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read /statusz: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/statusz status %d: %s", resp.StatusCode, b)
	}
	var st Status
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatalf("/statusz not JSON: %v\n%s", err, b)
	}
	return st
}
