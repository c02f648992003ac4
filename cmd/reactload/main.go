// Command reactload drives a running reactd region server with a synthetic
// crowd and task stream (the §V.C behaviour model) over real TCP, then
// prints the deadline/feedback outcome — a live smoke test of a deployment.
//
// Durations are compressed (default 100×) so a run finishes in seconds; the
// target server's loops must be correspondingly fast, e.g.:
//
//	reactd -addr :7341 -batch-period 50ms -monitor-period 20ms
//	reactload -addr localhost:7341 -workers 30 -rate 8 -tasks 200
//
// With -chaos, reactload instead brings up its own in-process region server
// — journaled to a throwaway data dir — behind a fault-injecting proxy, cuts
// every connection partway through the run, and restarts the server at the
// two-thirds mark, recovering every task and worker profile from the
// write-ahead journal. The run must finish with zero unresolved tasks and
// zero response mismatches. It is the resilience demo in one command.
//
// The task stream is open-loop, so an overload probe is the same command
// with a higher -rate (ten times workers/80 is 10x the stable ratio)
// against a reactd started with -admission: submissions the gates turn
// away are counted on the "rejected" line instead of ending the run, and
// the server line splits expired into deadline misses and shedder
// evictions. The self-hosted, conservation-checked measurement of that
// path is `bash benchmark/run.sh --workload overload` (docs/ADMISSION.md).
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"react/internal/engine"
	"react/internal/faultnet"
	"react/internal/journal"
	"react/internal/loadgen"
	"react/internal/schedule"
	"react/internal/wire"
)

func main() {
	addr := flag.String("addr", "localhost:7341", "region server address")
	workers := flag.Int("workers", 20, "synthetic crowd size")
	rate := flag.Float64("rate", 5, "tasks per (uncompressed) second")
	tasks := flag.Int("tasks", 100, "total tasks to submit")
	//lint:ignore clocktaint interactive default: a fresh seed per run is the point; pass -seed to reproduce
	seed := flag.Int64("seed", time.Now().UnixNano(), "behaviour/workload seed")
	compress := flag.Float64("compress", 100, "time compression factor")
	chaos := flag.Bool("chaos", false, "self-contained fault-injection run: in-process server behind a chaos proxy, with resets and a mid-run restart")
	flag.Parse()

	cfg := loadgen.Config{
		Addr:     *addr,
		Workers:  *workers,
		Rate:     *rate,
		Tasks:    *tasks,
		Seed:     *seed,
		Compress: *compress,
		Logf:     func(format string, args ...any) { slog.Info(fmt.Sprintf(format, args...)) },
	}

	var cleanup func()
	if *chaos {
		var err error
		cleanup, err = setupChaos(&cfg)
		if err != nil {
			fatal("reactload: chaos setup", "err", err)
		}
	}

	rep, err := loadgen.Run(cfg)
	if cleanup != nil {
		cleanup()
	}
	if err != nil {
		fatal("reactload: run", "err", err)
	}
	fmt.Printf("submitted   %d\nrejected    %d rate, %d probability, %d queue-full\nresults     %d\non-time     %d (%.1f%%)\nlate        %d\nexpired     %d\npositive    %d\nwall time   %v\n",
		rep.Submitted, rep.RejectedRate, rep.RejectedProbability, rep.QueueFull,
		rep.Results, rep.OnTime,
		100*float64(rep.OnTime)/float64(max(rep.Submitted, 1)),
		rep.Late, rep.Expired, rep.Positive, rep.Wall.Round(time.Millisecond))
	fmt.Printf("server: assigned %d, reassigned %d, expired %d (shed %d), batches %d, workers online %d (known %d)\n",
		rep.Server.Assigned, rep.Server.Reassigned, rep.Server.Expired, rep.Server.Shed,
		rep.Server.Batches, rep.Server.WorkersOnline, rep.Server.WorkersKnown)
	if *chaos {
		fmt.Printf("chaos: reconnects %d, resubmitted %d, reconciled %d, stale responses %d, mismatched %d\n",
			rep.Reconnects, rep.Resubmitted, rep.Reconciled, rep.Stale, rep.Mismatched)
		if rep.Unresolved > 0 || rep.Mismatched > 0 {
			fmt.Fprintf(os.Stderr, "chaos run FAILED: %d unresolved tasks, %d mismatched responses\n",
				rep.Unresolved, rep.Mismatched)
			os.Exit(1)
		}
		fmt.Println("chaos run survived: zero lost assignments, zero response mismatches")
		return
	}
	if rep.Results < rep.Submitted {
		fmt.Fprintf(os.Stderr, "warning: %d tasks unresolved at exit\n", rep.Submitted-rep.Results)
	}
}

// fatal logs msg with its attributes and exits non-zero.
func fatal(msg string, args ...any) {
	slog.Error(msg, args...)
	os.Exit(1)
}

// serverConfig is compressed to match the load generator's time scale,
// like a reactd started with fast loop periods.
func serverConfig() engine.Config {
	return engine.Config{
		BatchPoll:     5 * time.Millisecond,
		MonitorPeriod: 20 * time.Millisecond,
		Schedule:      schedule.Config{BatchBound: 3, BatchPeriod: 20 * time.Millisecond},
		Monitor:       engine.Monitor{Threshold: 0.1},
	}
}

// setupChaos starts the in-process server — journaled to a throwaway data
// dir — and the proxy, points the run at the proxy, turns on resilient
// mode, and installs the fault schedule: every connection hard-reset at
// one third of the submissions, a full server restart at two thirds. The
// restart is the real crash/recovery cycle: the old server stops (flushing
// its write-ahead log), a new one recovers every task and worker profile
// from the same data dir on a new port, and the proxy is retargeted.
// Returns a cleanup for the final server, proxy, and data dir.
func setupChaos(cfg *loadgen.Config) (func(), error) {
	dataDir, err := os.MkdirTemp("", "reactload-chaos-*")
	if err != nil {
		return nil, err
	}
	store, err := journal.Open(journal.Options{Dir: dataDir})
	if err != nil {
		os.RemoveAll(dataDir)
		return nil, err
	}
	srv, _, err := wire.ServeDurable("127.0.0.1:0", serverConfig(), store)
	if err != nil {
		store.Close()
		os.RemoveAll(dataDir)
		return nil, err
	}
	proxy, err := faultnet.New(faultnet.Config{Target: srv.Addr()})
	if err != nil {
		srv.Close()
		os.RemoveAll(dataDir)
		return nil, err
	}
	cfg.Addr = proxy.Addr()
	cfg.Resilient = true

	resetAt := cfg.Tasks / 3
	restartAt := cfg.Tasks * 2 / 3
	if resetAt < 1 {
		resetAt = 1
	}
	if restartAt <= resetAt {
		restartAt = resetAt + 1
	}
	cfg.OnSubmit = func(n int) {
		switch n {
		case resetAt:
			cut := proxy.ResetAll()
			slog.Info("chaos: hard-reset connections", "conns", cut, "at_task", n)
		case restartAt:
			srv.Close() // flushes and closes the journal
			next, err := journal.Open(journal.Options{Dir: dataDir})
			if err != nil {
				slog.Error("chaos: journal recovery failed", "err", err)
				return
			}
			nextSrv, sum, err := wire.ServeDurable("127.0.0.1:0", serverConfig(), next)
			if err != nil {
				next.Close()
				slog.Error("chaos: restart failed", "err", err)
				return
			}
			proxy.SetTarget(nextSrv.Addr())
			srv = nextSrv
			slog.Info("chaos: server restarted from the journal", "addr", nextSrv.Addr(),
				"tasks", sum.Tasks, "workers", sum.Workers, "seq", sum.LastSeq)
		}
	}
	return func() {
		proxy.Close()
		srv.Close()
		os.RemoveAll(dataDir)
	}, nil
}
