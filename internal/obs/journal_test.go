package obs

import (
	"net/http"
	"strings"
	"testing"

	"react/internal/clock"
	"react/internal/event"
	"react/internal/journal"
	"react/internal/metrics"
	"react/internal/taskq"
)

// TestJournalMetrics drives a journal store through an append and a sync,
// scrapes the plane, and checks the WAL counters, the recovery gauges,
// and the fsync latency histogram all appear with live values.
func TestJournalMetrics(t *testing.T) {
	store, err := journal.Open(journal.Options{Dir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	reg := metrics.NewRegistry()
	if err := RegisterJournal(reg, store); err != nil {
		t.Fatal(err)
	}
	rec := taskq.Record{Task: taskq.Task{ID: "t1", Reward: 1}, Status: taskq.Unassigned}
	if err := store.Append(journal.Record{Kind: event.KindSubmit, Task: &rec}); err != nil {
		t.Fatal(err)
	}
	if err := store.Sync(); err != nil {
		t.Fatal(err)
	}

	srv := NewServer(Options{Clock: clock.NewVirtual(clock.Epoch), Registry: reg})
	code, body := get(t, srv.Handler(), "/metrics")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for _, want := range []string{
		"react_journal_records_total 1",
		"react_journal_fsyncs_total 1",
		"react_journal_pending_bytes 0",
		"react_journal_failed 0",
		"react_journal_recovered_tasks 0",
		"react_journal_recovered_workers 0",
		"# TYPE react_journal_fsync_latency_seconds histogram",
		"react_journal_fsync_latency_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in exposition:\n%s", want, body)
		}
	}

	if err := RegisterJournal(reg, store); err == nil {
		t.Fatal("duplicate registration not rejected")
	}
}
