package loadgen

// Kill-recovery: the end-to-end durability gate. A real reactd process is
// started with -data-dir, loaded over real TCP, and killed with SIGKILL —
// no flush, no goodbye — in the middle of the run, twice. Each restart
// must recover from the write-ahead journal on the same port and the run
// must still end with zero unresolved tasks: completions that were
// in flight die with the process, but the journal brings the tasks back,
// the sweep returns them to the pool, and the resilient requester
// reconciles or resubmits anything the crash window swallowed.
//
// The test needs a built binary, so it is gated on REACTD_BIN (set by
// `make recovery`); without it the test skips and `go test ./...` stays
// hermetic.

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"react/internal/journal"
	"react/internal/taskq"
	"react/internal/wire"
)

// freeAddr reserves a loopback port and releases it for a process about to
// be started on it.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// startReactd launches the binary with compressed loop periods plus the
// mode's own flags and waits until it accepts connections on addr.
func startReactd(t *testing.T, bin, addr string, mode ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, append([]string{
		"-addr", addr,
		"-batch-bound", "3",
		"-batch-period", "20ms",
		"-monitor-period", "20ms",
		"-stats-every", "0",
	}, mode...)...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", bin, err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			c.Close()
			return cmd
		}
		time.Sleep(20 * time.Millisecond)
	}
	cmd.Process.Kill()
	cmd.Wait()
	t.Fatalf("reactd never started listening on %s", addr)
	return nil
}

func TestKillRecoveryZeroLostTasks(t *testing.T) {
	bin := os.Getenv("REACTD_BIN")
	if bin == "" {
		t.Skip("REACTD_BIN not set; run via `make recovery`")
	}

	// Reserve a port so the restarted process can reuse the address the
	// clients keep reconnecting to.
	addr := freeAddr(t)

	dataDir := t.TempDir()
	durable := []string{"-data-dir", dataDir, "-fsync-interval", "5ms"}
	cmd := startReactd(t, bin, addr, durable...)
	t.Cleanup(func() {
		if cmd != nil && cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})

	const tasks = 45
	kill := map[int]bool{tasks / 3: true, 2 * tasks / 3: true}
	rep, err := Run(Config{
		Addr:      addr,
		Workers:   10,
		Rate:      5,
		Tasks:     tasks,
		Seed:      11,
		Compress:  100,
		Resilient: true,
		Logf:      t.Logf,
		OnSubmit: func(n int) {
			if !kill[n] {
				return
			}
			// SIGKILL mid-batch: whatever sits in the group-commit buffer
			// is lost, whatever was fsynced must come back.
			if err := cmd.Process.Kill(); err != nil {
				t.Errorf("kill: %v", err)
				return
			}
			cmd.Wait()
			t.Logf("killed reactd at task %d, restarting on %s", n, addr)
			cmd = startReactd(t, bin, addr, durable...)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Submitted != tasks {
		t.Fatalf("submitted %d, want %d", rep.Submitted, tasks)
	}
	if rep.Unresolved != 0 {
		t.Fatalf("%d tasks unresolved after kill/recovery: %+v", rep.Unresolved, rep)
	}
	if rep.Mismatched != 0 {
		t.Fatalf("response correlation broke across restarts: %+v", rep)
	}
	if rep.Reconnects == 0 {
		t.Fatalf("kills injected but no reconnects recorded: %+v", rep)
	}
	if rep.OnTime+rep.Late+rep.Expired != rep.Results {
		t.Fatalf("result accounting broken: %+v", rep)
	}
	// The server's own counters were rebuilt from the journal at each
	// restart; with every task terminal they must conserve.
	if s := rep.Server; s.Received == 0 || s.Received != s.Completed+s.Expired || s.Shed > s.Expired {
		t.Fatalf("twice-recovered server stats do not conserve (received = completed + expired, shed <= expired): %+v", s)
	}
	t.Logf("kill-recovery report: %+v", rep)

	// Shut the surviving server down cleanly (flushes and closes the
	// journal), then replay the journal offline and check that the
	// spine-sourced records rebuild exactly the task states the clients
	// reconciled to: every task terminal, with the same completed/expired
	// split the requester observed.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("terminate reactd: %v", err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("reactd exit after SIGTERM: %v", err)
	}
	store, err := journal.Open(journal.Options{Dir: dataDir, Logf: t.Logf})
	if err != nil {
		t.Fatalf("reopen journal: %v", err)
	}
	defer store.Close()
	st := store.TakeRecovered()
	if st == nil {
		t.Fatal("journal recovered no state")
	}
	if len(st.Tasks) != tasks {
		t.Fatalf("journal recovered %d tasks, want %d", len(st.Tasks), tasks)
	}
	completed, expired := 0, 0
	for id, rec := range st.Tasks {
		switch rec.Status {
		case taskq.Completed:
			completed++
			if rec.Worker == "" || rec.FinishedAt.IsZero() || rec.Attempts < 1 {
				t.Errorf("task %s: completed record incoherent: %+v", id, rec)
			}
		case taskq.Expired:
			expired++
		default:
			t.Errorf("task %s: non-terminal status %v after a finished run", id, rec.Status)
		}
	}
	if completed != rep.OnTime+rep.Late || expired != rep.Expired {
		t.Fatalf("journal replay disagrees with client view: journal %d completed / %d expired, clients saw %d completed / %d expired",
			completed, expired, rep.OnTime+rep.Late, rep.Expired)
	}
	t.Logf("journal replay matches client view: %d completed, %d expired", completed, expired)
}

// TestGridSmoke is the only gate that starts a real `reactd -grid`: a 2×2
// federation with admission and the observability plane on, loaded by the
// same generator (its crowd and tasks spread over reactd's default -area,
// so several cells see traffic). Every task must terminate, more than one
// region must have served, and /trace.csv must have recorded them. Gated
// on REACTD_BIN like the kill-recovery test (`make recovery` runs both).
func TestGridSmoke(t *testing.T) {
	bin := os.Getenv("REACTD_BIN")
	if bin == "" {
		t.Skip("REACTD_BIN not set; run via `make recovery`")
	}
	// A grid has no per-region journal yet, so asking for one is refused
	// outright rather than served without durability.
	out, err := exec.Command(bin, "-grid", "2x2", "-data-dir", t.TempDir()).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "unjournaled") {
		t.Fatalf("reactd -grid -data-dir: err %v, output %q; want exit 2 naming the unjournaled regions", err, out)
	}

	addr, httpAddr := freeAddr(t), freeAddr(t)
	cmd := startReactd(t, bin, addr, "-grid", "2x2", "-admission", "-http", httpAddr)
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})

	const tasks = 40
	rep, err := Run(Config{Addr: addr, Workers: 16, Rate: 5, Tasks: tasks, Seed: 11, Compress: 100, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Submitted != tasks || rep.Results != rep.Submitted {
		t.Fatalf("submitted %d, results %d, want %d of each: %+v", rep.Submitted, rep.Results, tasks, rep)
	}
	if rep.Server.Received != tasks {
		t.Fatalf("stats summed over the regions: received %d, want %d", rep.Server.Received, tasks)
	}

	cl, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	regions, err := cl.Regions()
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) < 2 {
		t.Fatalf("regions = %+v, want at least two cells serving", regions)
	}

	resp, err := http.Get("http://" + httpAddr + "/trace.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if rows := strings.Count(string(body), "\n"); resp.StatusCode != http.StatusOK || rows < 1+tasks {
		t.Fatalf("/trace.csv: status %d, %d lines; want a header plus at least one row per task", resp.StatusCode, rows)
	}
	t.Logf("grid smoke: %d regions, %d trace bytes, report %+v", len(regions), len(body), rep)
}
