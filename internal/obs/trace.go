package obs

import (
	"fmt"
	"io"
	"sync"

	"react/internal/event"
)

// traceKinds are the CSV's kind words, one per timeline step; forget and
// batch events carry no step and are not recorded.
var traceKinds = [...]string{
	event.KindSubmit:   "submitted",
	event.KindAssign:   "assigned",
	event.KindRevoke:   "revoked",
	event.KindComplete: "completed",
	event.KindExpire:   "expired",
}

type traceRow struct {
	task, worker string
	atUnixMs     int64
	kind         event.Kind
}

// TraceRing is the window of recent task-lifecycle events behind
// /trace.csv: a fixed-size ring filled by an event-spine tap (HandleEvent),
// overwriting the oldest row once full. Safe for concurrent use.
type TraceRing struct {
	mu   sync.Mutex
	rows []traceRow
	next int // once full: the oldest row, overwritten next
}

// NewTraceRing returns a ring retaining at most limit rows (at least 1).
func NewTraceRing(limit int) *TraceRing {
	return &TraceRing{rows: make([]traceRow, 0, max(limit, 1))}
}

// HandleEvent records one spine event; install it with Bus.Tap.
func (r *TraceRing) HandleEvent(ev event.Event) {
	if int(ev.Kind) >= len(traceKinds) || traceKinds[ev.Kind] == "" {
		return
	}
	row := traceRow{task: ev.Task, worker: ev.Worker, atUnixMs: ev.At.UnixMilli(), kind: ev.Kind}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.rows) < cap(r.rows) {
		r.rows = append(r.rows, row)
		return
	}
	r.rows[r.next] = row
	r.next = (r.next + 1) % len(r.rows)
}

// WriteCSV emits the retained "task,kind,at_unix_ms,worker" rows, oldest
// first. The rows are copied out first, so a slow reader never holds up
// the tap.
func (r *TraceRing) WriteCSV(w io.Writer) error {
	r.mu.Lock()
	rows := append(append(make([]traceRow, 0, len(r.rows)), r.rows[r.next:]...), r.rows[:r.next]...)
	r.mu.Unlock()
	for _, row := range rows {
		if _, err := fmt.Fprintf(w, "%s,%s,%d,%s\n", row.task, traceKinds[row.kind], row.atUnixMs, row.worker); err != nil {
			return err
		}
	}
	return nil
}
