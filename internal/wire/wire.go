// Package wire deploys a REACT region server over TCP, standing in for the
// paper's PlanetLab deployment: requesters and workers connect from
// anywhere, speak newline-delimited JSON, and the server pushes assignments
// to registered workers and results to watching requesters. cmd/reactd
// hosts the server; cmd/reactctl and the examples use the client.
//
// The server side always talks to a *core.Server. A Regions resolver — the
// lone server itself, or a federation.Coordinator under `reactd -grid` —
// only says which one owns a location or holds a task, so a region behind
// a coordinator answers every request exactly like a lone one.
//
// Protocol: each line is one Message. Clients send requests
// (register/submit/complete/feedback/watch/watch-events/stats); the server
// answers every request with exactly one "ok" or "error" message, in order,
// and may interleave asynchronous "assignment", "result", and "event"
// pushes at any time.
package wire

import (
	"time"

	"react/internal/admission"
	"react/internal/core"
	"react/internal/event"
	"react/internal/region"
	"react/internal/taskq"
)

// Message is the single frame type of the protocol; Type selects which
// fields are meaningful.
type Message struct {
	Type string `json:"type"` // request: register|deregister|location|available|
	// submit|complete|feedback|watch|watch-events|task|stats — response:
	// ok|error — push: assignment|result|event

	// Seq correlates a response with the request that caused it: clients
	// stamp every request with a strictly increasing sequence number and
	// the server echoes it on the matching ok/error frame. This is what
	// lets a client outlive a timed-out call — the late response is
	// recognized as stale by its old Seq and discarded instead of being
	// mistaken for the answer to the next request. Zero means "not
	// stamped": servers tolerate its absence on a request (hand-typed
	// netcat sessions) and answer with Seq 0; clients always stamp, so
	// they discard an unstamped response as stale like any other Seq
	// below the one they wait for. Pushes carry no Seq.
	Seq uint64 `json:"seq,omitempty"`

	// register / deregister / location / available
	Worker    string  `json:"worker,omitempty"`
	Lat       float64 `json:"lat,omitempty"`
	Lon       float64 `json:"lon,omitempty"`
	Available *bool   `json:"available,omitempty"`

	// submit
	Task *TaskPayload `json:"task,omitempty"`

	// complete / feedback
	TaskID   string `json:"task_id,omitempty"`
	Answer   string `json:"answer,omitempty"`
	Positive *bool  `json:"positive,omitempty"`

	// error; Code, when present, is a stable machine-readable class (one
	// of the Code* constants) so clients distinguish retryable failures
	// (queue full, rate limited) from permanent ones (duplicate id,
	// past deadline) without parsing the human-readable text.
	Error string `json:"error,omitempty"`
	Code  string `json:"code,omitempty"`

	// pushes and stats responses
	Assignment *AssignmentPayload   `json:"assignment,omitempty"`
	Result     *ResultPayload       `json:"result,omitempty"`
	Stats      *StatsPayload        `json:"stats,omitempty"`
	Regions    []RegionStatsPayload `json:"regions,omitempty"`
	Status     *TaskStatusPayload   `json:"status,omitempty"`
	Event      *EventPayload        `json:"event,omitempty"`

	// Admission is the submit reply's admission verdict: present on "ok"
	// (status "admitted" plus the predicted deadline-meeting probability)
	// and on admission-rejection "error" frames (status, probability,
	// floor, retry-after hint). Servers without admission enabled omit it.
	Admission *AdmissionPayload `json:"admission,omitempty"`
}

// Error codes carried in Message.Code. Stable wire vocabulary — clients
// switch on these, so renaming one is a protocol break.
const (
	// CodeDuplicateTask: the task id was already submitted (permanent —
	// retrying the same id can never succeed).
	CodeDuplicateTask = "duplicate_task"
	// CodeQueueFull: the engine's in-flight ceiling is reached
	// (retryable — capacity frees as tasks finish).
	CodeQueueFull = "queue_full"
	// CodePastDeadline: the deadline was not in the future at receipt
	// (permanent for this payload).
	CodePastDeadline = "past_deadline"
	// CodeRejectedProbability: admission predicted the deadline cannot
	// plausibly be met (permanent — the deadline only gets closer).
	CodeRejectedProbability = string(admission.StatusRejectedProbability)
	// CodeRejectedRate: admission rejected on rate or concurrency limits
	// (retryable — honor the retry-after hint).
	CodeRejectedRate = string(admission.StatusRejectedRate)
)

// AdmissionPayload is the wire form of admission.Decision.
type AdmissionPayload struct {
	// Status is "admitted", "rejected_probability", or "rejected_rate"
	// (submissions never see "shed": shedding happens after admission,
	// and surfaces as an expire event with cause "shed" on the watch
	// stream instead).
	Status string `json:"status"`
	// Probability is the predicted deadline-meeting probability at
	// submit time (0 while the server's fleet model is cold).
	Probability float64 `json:"probability,omitempty"`
	// Floor is the server's configured rejection threshold.
	Floor float64 `json:"floor,omitempty"`
	// RetryAfterMS hints when a rejected submission is worth retrying
	// (only on retryable rejections).
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

func toAdmissionPayload(d admission.Decision) *AdmissionPayload {
	return &AdmissionPayload{
		Status:       string(d.Status),
		Probability:  d.Probability,
		Floor:        d.Floor,
		RetryAfterMS: int64(d.RetryAfter / time.Millisecond),
	}
}

// EventPayload is the wire form of one lifecycle event from the engine's
// event spine, pushed after a "watch-events" subscription. Seq is the
// bus-wide publish order (strictly increasing, per-task total order);
// AtUnixMS is the engine-clock timestamp of the transition.
type EventPayload struct {
	Seq         uint64  `json:"seq"`
	Kind        string  `json:"kind"` // submit|assign|revoke|complete|expire|forget
	TaskID      string  `json:"task_id"`
	Worker      string  `json:"worker,omitempty"`
	AtUnixMS    int64   `json:"at_unix_ms"`
	Cause       string  `json:"cause,omitempty"`
	Probability float64 `json:"probability,omitempty"` // eq. 2 estimate on eq2 revokes
	Status      string  `json:"status,omitempty"`      // task state after the transition
	MetDeadline bool    `json:"met_deadline,omitempty"`
	Attempts    int     `json:"attempts,omitempty"`
}

// Terminal reports whether this event ends the task's lifecycle, which is
// how `reactctl tail -id` knows the timeline is over.
func (p EventPayload) Terminal() bool {
	switch p.Kind {
	case "complete", "expire", "forget":
		return true
	}
	return false
}

func toEventPayload(ev event.Event) *EventPayload {
	return &EventPayload{
		Seq:         ev.Seq,
		Kind:        ev.Kind.String(),
		TaskID:      ev.Task,
		Worker:      ev.Worker,
		AtUnixMS:    ev.At.UnixMilli(),
		Cause:       ev.Cause,
		Probability: ev.Prob,
		Status:      ev.Record.Status.String(),
		MetDeadline: ev.Record.MetDeadline(),
		Attempts:    ev.Record.Attempts,
	}
}

// TaskStatusPayload answers a "task" status query: the lifecycle state of
// one task. Requesters use it to reconcile after a reconnect — a result
// pushed while the watcher was disconnected is otherwise unobservable.
// State is one of "unassigned", "assigned", "completed", "expired", or
// "unknown" (never submitted here, or already garbage-collected after the
// retention window).
type TaskStatusPayload struct {
	TaskID      string `json:"task_id"`
	State       string `json:"state"`
	Worker      string `json:"worker,omitempty"`
	MetDeadline bool   `json:"met_deadline,omitempty"`
}

// RegionStatsPayload is one region's counters in a "regions" response.
type RegionStatsPayload struct {
	Region string       `json:"region"`
	Stats  StatsPayload `json:"stats"`
}

// TaskPayload is the wire form of taskq.Task; the deadline travels as a
// relative duration in milliseconds so clients need not share a clock with
// the server.
type TaskPayload struct {
	ID          string  `json:"id"`
	Lat         float64 `json:"lat"`
	Lon         float64 `json:"lon"`
	DeadlineMS  int64   `json:"deadline_ms"` // from server receipt
	Reward      float64 `json:"reward"`
	Category    string  `json:"category"`
	Description string  `json:"description"`
}

// Task materializes the payload against the server clock.
func (p TaskPayload) Task(now time.Time) taskq.Task {
	return taskq.Task{
		ID:          p.ID,
		Location:    region.Point{Lat: p.Lat, Lon: p.Lon},
		Deadline:    now.Add(time.Duration(p.DeadlineMS) * time.Millisecond),
		Reward:      p.Reward,
		Category:    p.Category,
		Description: p.Description,
	}
}

// AssignmentPayload is the wire form of core.Assignment.
type AssignmentPayload struct {
	TaskID      string  `json:"task_id"`
	WorkerID    string  `json:"worker_id"`
	Category    string  `json:"category"`
	Description string  `json:"description"`
	Lat         float64 `json:"lat"`
	Lon         float64 `json:"lon"`
	DeadlineMS  int64   `json:"deadline_ms"` // remaining at push time
	Reward      float64 `json:"reward"`
}

func toAssignmentPayload(a core.Assignment, now time.Time) *AssignmentPayload {
	return &AssignmentPayload{
		TaskID:      a.TaskID,
		WorkerID:    a.WorkerID,
		Category:    a.Category,
		Description: a.Description,
		Lat:         a.Location.Lat,
		Lon:         a.Location.Lon,
		DeadlineMS:  int64(a.Deadline.Sub(now) / time.Millisecond),
		Reward:      a.Reward,
	}
}

// ResultPayload is the wire form of core.Result.
type ResultPayload struct {
	TaskID      string `json:"task_id"`
	WorkerID    string `json:"worker_id,omitempty"`
	Answer      string `json:"answer,omitempty"`
	MetDeadline bool   `json:"met_deadline"`
	Expired     bool   `json:"expired"`
}

func toResultPayload(r core.Result) *ResultPayload {
	return &ResultPayload{
		TaskID:      r.TaskID,
		WorkerID:    r.WorkerID,
		Answer:      r.Answer,
		MetDeadline: r.MetDeadline,
		Expired:     r.Expired,
	}
}

// StatsPayload is the wire form of core.Stats.
type StatsPayload struct {
	Received      int64 `json:"received"`
	Assigned      int64 `json:"assigned"`
	Completed     int64 `json:"completed"`
	OnTime        int64 `json:"on_time"`
	Expired       int64 `json:"expired"`
	Shed          int64 `json:"shed,omitempty"` // of Expired: evicted by the admission shedder
	Reassigned    int64 `json:"reassigned"`
	Batches       int64 `json:"batches"`
	WorkersOnline int   `json:"workers_online"`
	WorkersKnown  int   `json:"workers_known"`
}

func toStatsPayload(s core.Stats) *StatsPayload {
	return &StatsPayload{
		Received:      s.Received,
		Assigned:      s.Assigned,
		Completed:     s.Completed,
		OnTime:        s.OnTime,
		Expired:       s.Expired,
		Shed:          s.Shed,
		Reassigned:    s.Reassigned,
		Batches:       s.Batches,
		WorkersOnline: s.WorkersOnline,
		WorkersKnown:  s.WorkersKnown,
	}
}
