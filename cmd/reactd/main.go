// Command reactd runs one REACT region server: the deployable middleware of
// Figure 1, listening for workers and requesters over the JSON/TCP protocol
// in internal/wire.
//
// Usage:
//
//	reactd -addr :7341
//	reactd -addr :7341 -matcher greedy -cycles 3000 -batch-bound 10
//	reactd -addr :7341 -http :9090
//	reactd -addr :7341 -data-dir /var/lib/reactd
//
// With -data-dir set, every mutation is write-ahead journaled with
// group-commit fsync batching and the full server state — tasks, worker
// histories, counters — is recovered from the journal at startup, so a
// crash or kill -9 loses at most one fsync interval of acknowledgements
// (see docs/PERSISTENCE.md).
// Interact with it using reactctl (register workers, submit tasks, watch
// results) or any client speaking the newline-delimited JSON protocol.
// With -http set, a read-only observability plane serves /metrics
// (Prometheus text format), /statusz (JSON snapshot), and /debug/pprof/ on
// its own listener; scrape it with `reactctl top` or any collector.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"react/internal/admission"
	"react/internal/clock"
	"react/internal/engine"
	"react/internal/event"
	"react/internal/journal"
	"react/internal/matching"
	"react/internal/metrics"
	"react/internal/obs"
	"react/internal/region"
	"react/internal/schedule"
	"react/internal/taskq"
	"react/internal/wire"
)

// obsWiring carries the observability plane's registry and trace ring
// through server construction. Nil when -http is unset, so the metrics
// hooks cost nothing in the default configuration.
type obsWiring struct {
	reg   *metrics.Registry
	trace *obs.TraceRing // backs /trace.csv; nil with -trace-cap 0
}

// wireRegion hangs reactd's per-region plumbing on one region — "all" in
// single-region mode, each grid cell as ServeGrid starts it: the Eq. 2
// revocation log, and with -http the region's collector (its own series
// set under the region label), admission metrics and the /trace.csv tap.
// The Eq. 2 log reads a bounded event-spine subscription off the engine's
// tick goroutines; it lives for the process, and a logging stall beyond
// the buffer drops log lines, never scheduling work.
func (ow *obsWiring) wireRegion(r *wire.Region) {
	eng := r.Engine()
	sub := eng.Events().Subscribe(256, func(ev event.Event) bool {
		return ev.Kind == event.KindRevoke && ev.Cause == taskq.CauseEq2
	})
	go func() {
		for ev := range sub.C() {
			slog.Info("reassign", "region", r.ID, "task", ev.Task, "worker", ev.Worker, "eq2", ev.Prob)
		}
	}()
	if ow == nil {
		return
	}
	col := obs.NewEngineCollector()
	col.Attach(eng)
	if err := col.Register(ow.reg, eng, metrics.L("region", r.ID)); err != nil {
		// Duplicate registration is a wiring bug, not an operational
		// condition; surface it loudly but keep serving tasks.
		slog.Error("reactd: region metrics", "region", r.ID, "err", err)
	}
	if adm := eng.Admission(); adm != nil {
		if err := obs.RegisterAdmission(ow.reg, adm, metrics.L("region", r.ID)); err != nil {
			slog.Error("reactd: admission metrics", "region", r.ID, "err", err)
		}
	}
	if ow.trace != nil {
		eng.Events().Tap(ow.trace.HandleEvent)
	}
}

func main() {
	addr := flag.String("addr", ":7341", "listen address")
	matcherName := flag.String("matcher", "react", "matching algorithm: react|metropolis|greedy|hungarian|uniform")
	cycles := flag.Int("cycles", 0, "cycle budget for react/metropolis (0 = adaptive)")
	batchBound := flag.Int("batch-bound", 10, "run a batch once this many tasks are unassigned")
	batchPeriod := flag.Duration("batch-period", 5*time.Second, "maximum interval between batches")
	probBound := flag.Float64("edge-bound", 0.1, "Eq.3 probability bound for instantiating an edge")
	threshold := flag.Float64("reassign-threshold", 0.1, "Eq.2 probability below which a task is reassigned (negative turns Eq.2 off)")
	monitorPeriod := flag.Duration("monitor-period", time.Second, "Eq.2 sweep period")
	statsEvery := flag.Duration("stats-every", 30*time.Second, "stats logging period (0 disables)")
	dataDir := flag.String("data-dir", "", "write-ahead journal directory: state recovered at startup, every mutation journaled (single-region mode only: refused together with -grid)")
	fsyncInterval := flag.Duration("fsync-interval", 25*time.Millisecond, "group-commit window: the journal fsyncs at most this far behind the last acknowledged mutation")
	retention := flag.Duration("retention", time.Hour, "how long terminal task records are kept for late feedback")
	grid := flag.String("grid", "", "multi-region mode: \"RxC\" decomposition of -area (e.g. 2x2); empty = single region")
	area := flag.String("area", "37.8,23.5,38.2,24.0", "geographic area as minLat,minLon,maxLat,maxLon (multi-region mode)")
	idleTimeout := flag.Duration("idle-timeout", wire.DefaultIdleTimeout, "drop connections silent for this long (0 disables); clients keepalive-ping well under it")
	httpAddr := flag.String("http", "", "observability plane listen address (e.g. :9090); empty disables /metrics, /statusz, /debug/pprof")
	traceCap := flag.Int("trace-cap", 65536, "lifecycle events retained for /trace.csv (0 disables; needs -http)")
	admissionOn := flag.Bool("admission", false, "enable deadline-aware admission control and overload shedding (docs/ADMISSION.md)")
	maxInflight := flag.Int("max-inflight", 0, "global in-flight task ceiling (0 = unlimited; needs -admission)")
	admitFloor := flag.Float64("admit-floor", 0, "reject submissions whose predicted deadline-meeting probability falls below this (0 disables; needs -admission)")
	admitRate := flag.Float64("admit-rate", 0, "per-requester submit tokens per second (0 = unlimited; needs -admission)")
	flag.Parse()
	if *grid != "" && *dataDir != "" {
		fmt.Fprintln(os.Stderr, "reactd: -data-dir cannot be combined with -grid: the regions would run unjournaled")
		os.Exit(2)
	}

	var matcher matching.Matcher
	switch *matcherName {
	case "react":
		matcher = matching.REACT{Cycles: *cycles, Adaptive: *cycles == 0}
	case "metropolis":
		matcher = matching.Metropolis{Cycles: *cycles, Adaptive: *cycles == 0}
	case "greedy":
		matcher = matching.Greedy{}
	case "hungarian":
		matcher = matching.Hungarian{}
	case "uniform":
		matcher = matching.Uniform{}
	default:
		fmt.Fprintf(os.Stderr, "reactd: unknown matcher %q\n", *matcherName)
		os.Exit(2)
	}

	cfg := engine.Config{
		Matcher:       matcher,
		MonitorPeriod: *monitorPeriod,
		Retention:     *retention,
		Schedule: schedule.Config{
			BatchBound:    *batchBound,
			BatchPeriod:   *batchPeriod,
			EdgeProbBound: *probBound,
		},
	}
	cfg.Monitor.Threshold = *threshold
	if *admissionOn {
		cfg.Admission = &admission.Config{
			ProbFloor:     *admitFloor,
			MaxInflight:   *maxInflight,
			RequesterRate: *admitRate,
		}
	} else if *maxInflight > 0 || *admitFloor > 0 || *admitRate > 0 {
		slog.Warn("reactd: -max-inflight/-admit-floor/-admit-rate have no effect without -admission")
	}

	var ow *obsWiring
	if *httpAddr != "" {
		ow = &obsWiring{reg: metrics.NewRegistry()}
		if *traceCap > 0 {
			ow.trace = obs.NewTraceRing(*traceCap)
		}
	}

	var srv *wire.Server
	var store *journal.Store
	var err error
	if *grid != "" {
		srv, err = serveGrid(*addr, *grid, *area, cfg, ow)
	} else {
		if *dataDir != "" {
			// The journal's default Logf reports through slog.
			store, err = journal.Open(journal.Options{Dir: *dataDir, FsyncInterval: *fsyncInterval})
			if err != nil {
				fatal("reactd: open journal", "dir", *dataDir, "err", err)
			}
		}
		var sum journal.Summary
		srv, sum, err = wire.ServeDurable(*addr, cfg, store) // nil store: no persistence
		if err == nil {
			if store != nil {
				slog.Info("reactd: journal recovered", "dir", *dataDir, "tasks", sum.Tasks, "workers", sum.Workers,
					"snapshot_seq", sum.SnapshotSeq, "tail_records", sum.TailRecords, "torn_bytes", sum.TornBytes)
			}
			ow.wireRegion(srv.Core())
		}
	}
	if err != nil {
		fatal("reactd: serve", "err", err)
	}
	srv.SetIdleTimeout(*idleTimeout)
	slog.Info("reactd: listening", "addr", srv.Addr(), "matcher", *matcherName, "grid", *grid)

	var plane *obs.Server
	if ow != nil {
		if err := obs.RegisterWireServer(ow.reg, srv); err != nil {
			fatal("reactd: wire metrics", "err", err)
		}
		if err := obs.RegisterRuntime(ow.reg); err != nil {
			fatal("reactd: runtime metrics", "err", err)
		}
		if store != nil {
			if err := obs.RegisterJournal(ow.reg, store); err != nil {
				fatal("reactd: journal metrics", "err", err)
			}
		}
		plane = obs.NewServer(obs.Options{
			Clock:    clock.System{},
			Registry: ow.reg,
			Regions:  func() []obs.Source { return sources(srv.Regions()) },
			Trace:    ow.trace,
			Logf:     func(format string, args ...any) { slog.Error(fmt.Sprintf(format, args...)) },
		})
		if err := plane.Start(*httpAddr); err != nil {
			fatal("reactd: observability plane", "err", err)
		}
		slog.Info("reactd: observability plane (/metrics /statusz /trace.csv /debug/pprof/)", "addr", "http://"+plane.Addr())
	}

	if *statsEvery > 0 {
		go func() {
			ticker := time.NewTicker(*statsEvery)
			defer ticker.Stop()
			for range ticker.C {
				st := srv.Stats()
				slog.Info("stats", "received", st.Received, "assigned", st.Assigned, "completed", st.Completed,
					"ontime", st.OnTime, "expired", st.Expired, "reassigned", st.Reassigned, "batches", st.Batches,
					"workers", st.WorkersOnline, "known", st.WorkersKnown)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	slog.Info("reactd: shutting down")
	if plane != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := plane.Shutdown(ctx); err != nil {
			slog.Error("reactd: observability shutdown", "err", err)
		}
		cancel()
	}
	if err := srv.Close(); err != nil {
		slog.Error("reactd: close", "err", err)
	}
}

// fatal logs msg with its attributes and exits non-zero.
func fatal(msg string, args ...any) {
	slog.Error(msg, args...)
	os.Exit(1)
}

// serveGrid hosts one region per grid cell behind a single port, routing
// by geography — the paper's spatial decomposition as a deployment flag.
func serveGrid(addr, gridSpec, areaSpec string, cfg engine.Config, ow *obsWiring) (*wire.Server, error) {
	var rows, cols int
	if _, err := fmt.Sscanf(gridSpec, "%dx%d", &rows, &cols); err != nil {
		return nil, fmt.Errorf("bad -grid %q (want RxC): %v", gridSpec, err)
	}
	var rect region.Rect
	if _, err := fmt.Sscanf(areaSpec, "%f,%f,%f,%f",
		&rect.MinLat, &rect.MinLon, &rect.MaxLat, &rect.MaxLon); err != nil {
		return nil, fmt.Errorf("bad -area %q: %v", areaSpec, err)
	}
	g, err := region.NewGrid(rect, rows, cols)
	if err != nil {
		return nil, err
	}
	return wire.ServeGrid(addr, g, cfg, func(r *wire.Region) {
		slog.Info("reactd: starting region", "region", r.ID)
		ow.wireRegion(r)
	})
}

// sources lists the running regions as /statusz rows.
func sources(rs []*wire.Region) []obs.Source {
	out := make([]obs.Source, len(rs))
	for i, r := range rs {
		out[i] = obs.Source{ID: r.ID, Engine: r.Engine()}
	}
	return out
}
