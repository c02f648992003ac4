package loadgen

import (
	"fmt"
	"testing"
	"time"

	"react/internal/admission"
	"react/internal/core"
	"react/internal/engine"
	"react/internal/faultnet"
	"react/internal/journal"
	"react/internal/schedule"
	"react/internal/wire"
)

// startServer launches a wire server whose loop periods are compressed to
// match the load generator's time scale; adm, when non-nil, turns the
// admission plane on.
func startServer(t *testing.T, adm *admission.Config) *wire.Server {
	t.Helper()
	s, err := wire.Serve("127.0.0.1:0", serverOptions(adm))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func serverOptions(adm *admission.Config) core.Options {
	return core.Options{
		Admission:     adm,
		BatchPoll:     5 * time.Millisecond,
		MonitorPeriod: 20 * time.Millisecond,
		Schedule:      schedule.Config{BatchBound: 3, BatchPeriod: 20 * time.Millisecond},
		Monitor:       engine.Monitor{Threshold: 0.1},
	}
}

func TestLoadRunCompletes(t *testing.T) {
	s := startServer(t, nil)
	rep, err := Run(Config{
		Addr:     s.Addr(),
		Workers:  10,
		Rate:     5,
		Tasks:    40,
		Seed:     1,
		Compress: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Submitted != 40 {
		t.Fatalf("submitted %d", rep.Submitted)
	}
	if rep.Results == 0 {
		t.Fatal("no results received")
	}
	if rep.OnTime+rep.Late+rep.Expired != rep.Results {
		t.Fatalf("result accounting broken: %+v", rep)
	}
	// The crowd model has DelayProb 0.5 with the monitor active, so a
	// majority of tasks should land on time even at high compression.
	if rep.OnTime < rep.Submitted/3 {
		t.Fatalf("only %d/%d on time: %+v", rep.OnTime, rep.Submitted, rep)
	}
	if rep.Server.Received != int64(rep.Submitted) {
		t.Fatalf("server saw %d, submitted %d", rep.Server.Received, rep.Submitted)
	}
	if rep.Positive == 0 {
		t.Fatal("no positive feedback delivered")
	}
	if rep.Wall <= 0 {
		t.Fatal("wall time not recorded")
	}
}

// TestLoadRunCountsAdmissionRejections drives a server whose rate gate
// admits almost nothing: the run must count the typed rejections and carry
// on, and every task that was admitted must still reach a terminal state.
// Both modes leave a rejection behind, so loadgen's count is the server's
// count — no submission is silently re-presented.
func TestLoadRunCountsAdmissionRejections(t *testing.T) {
	for _, tc := range []struct {
		name      string
		resilient bool
	}{{"plain", false}, {"resilient", true}} {
		t.Run(tc.name, func(t *testing.T) {
			s := startServer(t, &admission.Config{RequesterRate: 1, RequesterBurst: 1})
			rep, err := Run(Config{
				Addr:      s.Addr(),
				Workers:   5,
				Rate:      50,
				Tasks:     20,
				Seed:      3,
				Compress:  200,
				Resilient: tc.resilient,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.RejectedRate == 0 {
				t.Fatalf("rate gate never engaged: %+v", rep)
			}
			if _, _, rejectedRate, _ := s.Core().Admission().Counters(); int64(rep.RejectedRate) != rejectedRate {
				t.Fatalf("loadgen counted %d rate rejections, the server made %d: %+v", rep.RejectedRate, rejectedRate, rep)
			}
			if got := rep.Submitted + rep.RejectedRate + rep.RejectedProbability + rep.QueueFull; got != 20 {
				t.Fatalf("offered load not conserved: %d accounted for, want 20: %+v", got, rep)
			}
			if rep.Results != rep.Submitted || rep.Unresolved != 0 {
				t.Fatalf("admitted tasks left open: %+v", rep)
			}
			if rep.Server.Received != int64(rep.Submitted) {
				t.Fatalf("server saw %d, accepted %d", rep.Server.Received, rep.Submitted)
			}
		})
	}
}

func TestLoadRunResilientSurvivesResets(t *testing.T) {
	s := startServer(t, nil)
	proxy, err := faultnet.New(faultnet.Config{Target: s.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })

	rep, err := Run(Config{
		Addr:      proxy.Addr(),
		Workers:   8,
		Rate:      5,
		Tasks:     30,
		Seed:      2,
		Compress:  200,
		Resilient: true,
		OnSubmit: func(n int) {
			if n == 10 || n == 20 {
				proxy.ResetAll() // cut every connection mid-run, twice
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Submitted != 30 {
		t.Fatalf("submitted %d", rep.Submitted)
	}
	if rep.Unresolved != 0 {
		t.Fatalf("%d tasks unresolved: %+v", rep.Unresolved, rep)
	}
	if rep.Mismatched != 0 {
		t.Fatalf("response correlation broke: %+v", rep)
	}
	if rep.Reconnects == 0 {
		t.Fatalf("resets injected but no reconnects recorded: %+v", rep)
	}
	if rep.OnTime+rep.Late+rep.Expired != rep.Results {
		t.Fatalf("result accounting broken: %+v", rep)
	}
}

// TestLoadRunResilientSurvivesRestart is `reactload -chaos`'s restart: a
// journaled server behind the proxy stops at two thirds of the submissions
// and a new one recovers from the same data dir on another port. Every
// session must redial through the retargeted proxy, every task must
// resolve, and the recovered server must know every worker again.
func TestLoadRunResilientSurvivesRestart(t *testing.T) {
	dataDir := t.TempDir()
	serve := func() *wire.Server {
		t.Helper()
		store, err := journal.Open(journal.Options{Dir: dataDir, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		s, _, err := wire.ServeDurable("127.0.0.1:0", serverOptions(nil), store)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	srv := serve()
	proxy, err := faultnet.New(faultnet.Config{Target: srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })

	const workers, tasks = 8, 30
	rep, err := Run(Config{
		Addr:      proxy.Addr(),
		Workers:   workers,
		Rate:      5,
		Tasks:     tasks,
		Seed:      4,
		Compress:  200,
		Resilient: true,
		Logf:      t.Logf,
		OnSubmit: func(n int) {
			if n == 2*tasks/3 {
				srv.Close() // flushes and closes the journal
				srv = serve()
				proxy.SetTarget(srv.Addr())
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Submitted != tasks {
		t.Fatalf("submitted %d", rep.Submitted)
	}
	if rep.Unresolved != 0 {
		t.Fatalf("%d tasks unresolved across the restart: %+v", rep.Unresolved, rep)
	}
	if rep.Mismatched != 0 {
		t.Fatalf("response correlation broke: %+v", rep)
	}
	if rep.Reconnects < 1 {
		t.Fatalf("server restarted but no reconnects recorded: %+v", rep)
	}
	if rep.OnTime+rep.Late+rep.Expired != rep.Results {
		t.Fatalf("result accounting broken: %+v", rep)
	}
	for i := 0; i < workers; i++ {
		id := fmt.Sprintf("load-w%03d", i)
		if _, ok := srv.Core().Workers().Get(id); !ok {
			t.Errorf("recovered server does not know worker %s", id)
		}
	}
}

func TestLoadRunBadAddress(t *testing.T) {
	if _, err := Run(Config{Addr: "127.0.0.1:1", Tasks: 1, Workers: 1}); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.normalize()
	if c.Workers != 20 || c.Rate != 0.25 || c.Tasks != 100 || c.Compress != 100 || c.Logf == nil {
		t.Fatalf("defaults = %+v", c)
	}
}
