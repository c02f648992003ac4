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
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"react/internal/admission"
	"react/internal/clock"
	"react/internal/core"
	"react/internal/engine"
	"react/internal/event"
	"react/internal/federation"
	"react/internal/journal"
	"react/internal/matching"
	"react/internal/metrics"
	"react/internal/obs"
	"react/internal/region"
	"react/internal/schedule"
	"react/internal/taskq"
	"react/internal/trace"
	"react/internal/wire"
)

// obsWiring carries the observability plane's registry and region list
// through server construction. Nil when -http is unset, so the metrics
// hooks cost nothing in the default configuration.
type obsWiring struct {
	reg     *metrics.Registry
	regions obs.RegionSet
}

// watchEq2 logs the Eq. 2 monitor's revocations from a bounded
// event-spine subscription, off the engine's tick goroutines. The
// subscription lives for the process; a logging stall beyond the buffer
// drops log lines, never scheduling work.
func watchEq2(eng *engine.Engine) {
	sub := eng.Events().Subscribe(256, func(ev event.Event) bool {
		return ev.Kind == event.KindRevoke && ev.Cause == taskq.CauseEq2
	})
	go func() {
		for ev := range sub.C() {
			log.Printf("reassign task=%s worker=%s eq2=%.3f", ev.Task, ev.Worker, ev.Prob)
		}
	}()
}

// attachCollector wires a fresh collector onto an engine's event spine
// and publishes its series and statusz row. adm is the region's
// admission controller (nil when the plane is disabled).
func (ow *obsWiring) attachCollector(regionID string, eng *engine.Engine, adm *admission.Controller) {
	col := obs.NewEngineCollector()
	col.Attach(eng)
	ow.register(col, regionID, eng, adm)
}

// register publishes one engine's series and statusz row.
func (ow *obsWiring) register(col *obs.EngineCollector, regionID string, eng *engine.Engine, adm *admission.Controller) {
	if err := col.Register(ow.reg, eng, metrics.L("region", regionID)); err != nil {
		// Duplicate registration is a wiring bug, not an operational
		// condition; surface it loudly but keep serving tasks.
		log.Printf("reactd: metrics for region %s: %v", regionID, err)
		return
	}
	if adm != nil {
		if err := obs.RegisterAdmission(ow.reg, adm, metrics.L("region", regionID)); err != nil {
			log.Printf("reactd: admission metrics for region %s: %v", regionID, err)
		}
	}
	ow.regions.Add(obs.Source{ID: regionID, Engine: eng, Admission: adm})
}

func main() {
	addr := flag.String("addr", ":7341", "listen address")
	matcherName := flag.String("matcher", "react", "matching algorithm: react|metropolis|greedy|hungarian|uniform")
	cycles := flag.Int("cycles", 0, "cycle budget for react/metropolis (0 = adaptive)")
	batchBound := flag.Int("batch-bound", 10, "run a batch once this many tasks are unassigned")
	batchPeriod := flag.Duration("batch-period", 5*time.Second, "maximum interval between batches")
	probBound := flag.Float64("edge-bound", 0.1, "Eq.3 probability bound for instantiating an edge")
	threshold := flag.Float64("reassign-threshold", 0.1, "Eq.2 probability below which a task is reassigned")
	monitorPeriod := flag.Duration("monitor-period", time.Second, "Eq.2 sweep period")
	statsEvery := flag.Duration("stats-every", 30*time.Second, "stats logging period (0 disables)")
	dataDir := flag.String("data-dir", "", "write-ahead journal directory: state recovered at startup, every mutation journaled (single-region mode only)")
	fsyncInterval := flag.Duration("fsync-interval", 25*time.Millisecond, "group-commit window: the journal fsyncs at most this far behind the last acknowledged mutation")
	retention := flag.Duration("retention", time.Hour, "how long terminal task records are kept for late feedback")
	grid := flag.String("grid", "", "multi-region mode: \"RxC\" decomposition of -area (e.g. 2x2); empty = single region")
	area := flag.String("area", "37.8,23.5,38.2,24.0", "geographic area as minLat,minLon,maxLat,maxLon (multi-region mode)")
	idleTimeout := flag.Duration("idle-timeout", wire.DefaultIdleTimeout, "drop connections silent for this long (0 disables); clients keepalive-ping well under it")
	shards := flag.Int("shards", 0, "task-bookkeeping stripes in the scheduling engine (0 = GOMAXPROCS)")
	httpAddr := flag.String("http", "", "observability plane listen address (e.g. :9090); empty disables /metrics, /statusz, /debug/pprof")
	traceCap := flag.Int("trace-cap", 65536, "lifecycle events retained for /trace.csv (0 disables; needs -http, single-region mode)")
	admissionOn := flag.Bool("admission", false, "enable deadline-aware admission control and overload shedding (docs/ADMISSION.md)")
	maxInflight := flag.Int("max-inflight", 0, "global in-flight task ceiling (0 = unlimited; needs -admission)")
	admitFloor := flag.Float64("admit-floor", 0, "reject submissions whose predicted deadline-meeting probability falls below this (0 disables; needs -admission)")
	admitRate := flag.Float64("admit-rate", 0, "per-requester submit tokens per second (0 = unlimited; needs -admission)")
	flag.Parse()

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

	opts := core.Options{
		Matcher:       matcher,
		MonitorPeriod: *monitorPeriod,
		Retention:     *retention,
		Shards:        *shards,
		Schedule: schedule.Config{
			BatchBound:    *batchBound,
			BatchPeriod:   *batchPeriod,
			EdgeProbBound: *probBound,
		},
	}
	opts.Monitor.Threshold = *threshold
	if *admissionOn {
		opts.Admission = &admission.Config{
			ProbFloor:     *admitFloor,
			MaxInflight:   *maxInflight,
			RequesterRate: *admitRate,
		}
	} else if *maxInflight > 0 || *admitFloor > 0 || *admitRate > 0 {
		log.Print("reactd: -max-inflight/-admit-floor/-admit-rate have no effect without -admission")
	}

	var ow *obsWiring
	if *httpAddr != "" {
		ow = &obsWiring{reg: metrics.NewRegistry()}
	}

	var srv *wire.Server
	var store *journal.Store
	var traceRec *trace.Recorder
	var err error
	if *grid != "" {
		srv, err = serveGrid(*addr, *grid, *area, opts, ow)
		if *dataDir != "" {
			log.Print("reactd: -data-dir is ignored in multi-region mode")
			*dataDir = ""
		}
	} else {
		if *dataDir != "" {
			store, err = journal.Open(journal.Options{
				Dir:           *dataDir,
				FsyncInterval: *fsyncInterval,
				Logf:          log.Printf,
			})
			if err == nil {
				var sum journal.Summary
				srv, sum, err = wire.ServeDurable(*addr, opts, store)
				if err != nil {
					store.Close()
				} else {
					log.Printf("reactd: journal %s: recovered %d tasks, %d workers (snapshot seq %d, %d tail records, %d torn bytes dropped)",
						*dataDir, sum.Tasks, sum.Workers, sum.SnapshotSeq, sum.TailRecords, sum.TornBytes)
				}
			}
		} else {
			srv, err = wire.Serve(*addr, opts)
		}
		if err == nil {
			eng := srv.Core().Engine()
			watchEq2(eng)
			if ow != nil {
				ow.attachCollector("all", eng, srv.Core().Admission())
				if *traceCap > 0 {
					traceRec = trace.NewBounded(*traceCap)
					eng.Events().Tap(traceRec.Handle)
				}
			}
		}
	}
	if err != nil {
		log.Fatalf("reactd: %v", err)
	}
	srv.SetIdleTimeout(*idleTimeout)
	log.Printf("reactd: listening on %s (matcher=%s, grid=%q)", srv.Addr(), *matcherName, *grid)

	var plane *obs.Server
	if ow != nil {
		if err := obs.RegisterWireServer(ow.reg, srv); err != nil {
			log.Fatalf("reactd: wire metrics: %v", err)
		}
		if store != nil {
			if err := obs.RegisterJournal(ow.reg, store); err != nil {
				log.Fatalf("reactd: journal metrics: %v", err)
			}
		}
		plane = obs.NewServer(obs.Options{
			Clock:    clock.System{},
			Registry: ow.reg,
			Regions:  ow.regions.Snapshot,
			Trace:    traceRec,
			Logf:     log.Printf,
		})
		if err := plane.Start(*httpAddr); err != nil {
			log.Fatalf("reactd: %v", err)
		}
		log.Printf("reactd: observability plane on http://%s (/metrics /statusz /trace.csv /debug/pprof/)", plane.Addr())
	}

	if *statsEvery > 0 {
		go func() {
			ticker := time.NewTicker(*statsEvery)
			defer ticker.Stop()
			for range ticker.C {
				st := srv.Backend().Stats()
				log.Printf("stats received=%d assigned=%d completed=%d ontime=%d expired=%d reassigned=%d batches=%d workers=%d known=%d",
					st.Received, st.Assigned, st.Completed, st.OnTime,
					st.Expired, st.Reassigned, st.Batches, st.WorkersOnline, st.WorkersKnown)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Print("reactd: shutting down")
	if plane != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := plane.Shutdown(ctx); err != nil {
			log.Printf("reactd: observability shutdown: %v", err)
		}
		cancel()
	}
	if err := srv.Close(); err != nil {
		log.Printf("reactd: close: %v", err)
	}
}

// serveGrid hosts one region server per grid cell behind a single port,
// routing by geography — the paper's spatial decomposition as a deployment
// flag.
func serveGrid(addr, gridSpec, areaSpec string, opts core.Options, ow *obsWiring) (*wire.Server, error) {
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
	var relay wire.ResultRelay
	regionOpts := opts
	userHook := opts.OnResult
	regionOpts.OnResult = func(r core.Result) {
		if userHook != nil {
			userHook(r)
		}
		relay.Publish(r)
	}
	coord := federation.New(g, func(regionID string) *core.Server {
		log.Printf("reactd: starting region server %s", regionID)
		s := core.New(regionOpts)
		watchEq2(s.Engine())
		if ow != nil {
			// Each region gets its own collector so the shared registry
			// carries one series set per region label.
			ow.attachCollector(regionID, s.Engine(), s.Admission())
		}
		return s
	})
	return wire.ServeBackend(addr, coord, &relay)
}
