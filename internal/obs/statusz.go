package obs

import (
	"react/internal/admission"
	"react/internal/engine"
	"react/internal/event"
	"react/internal/profile"
)

// DefaultWorkerLimit caps how many per-worker rows a /statusz response
// carries unless the caller asks for more with ?workers=N. Worker counts in
// the paper's experiments reach the thousands; the status page is for
// humans.
const DefaultWorkerLimit = 50

// Source names one engine the status page should report on. ID is the
// region identifier ("all" for a single-region deployment).
type Source struct {
	ID     string
	Engine *engine.Engine
}

// EngineStatus is engine.Stats with JSON tags: the ledger's Tally (shed
// only when non-zero), the round count and the matcher's wall time.
type EngineStatus struct {
	event.Tally
	Batches            int64   `json:"batches"`
	MatcherTimeSeconds float64 `json:"matcher_time_seconds"`
}

// ModelStatus is a worker's fitted power-law execution model (§IV.B).
type ModelStatus struct {
	Alpha float64 `json:"alpha"`
	Kmin  float64 `json:"kmin"`
	N     int     `json:"n"`
}

// WorkerStatus is one worker's profile snapshot.
type WorkerStatus struct {
	ID         string       `json:"id"`
	Connected  bool         `json:"connected"`
	Available  bool         `json:"available"`
	BusyTask   string       `json:"busy_task,omitempty"`
	Finished   int          `json:"finished"`
	Accuracy   *float64     `json:"accuracy,omitempty"` // absent until first feedback
	FitSamples int          `json:"fit_samples"`
	Model      *ModelStatus `json:"model,omitempty"` // absent below the training threshold
}

// RegionStatus is one engine's full snapshot.
type RegionStatus struct {
	ID            string         `json:"id"`
	Engine        EngineStatus   `json:"engine"`
	WorkersOnline int            `json:"workers_online"`
	WorkersKnown  int            `json:"workers_known"`
	WorkersShown  int            `json:"workers_shown"`
	WorkersElided int            `json:"workers_elided"`
	Workers       []WorkerStatus `json:"workers"`
	TasksBacklog  int            `json:"tasks_backlog"`
	TasksRetained int            `json:"tasks_retained"`
	// TasksBacklogHighWater is the peak unassigned backlog the region's
	// task store ever held.
	TasksBacklogHighWater int `json:"tasks_backlog_highwater"`
	// Admission is the admission plane's snapshot (floor, load gauges,
	// decision counters, per-requester buckets); absent when disabled.
	Admission *admission.Snapshot `json:"admission,omitempty"`
}

// Status is the /statusz document.
type Status struct {
	Now           string         `json:"now"`
	UptimeSeconds float64        `json:"uptime_seconds"`
	Regions       []RegionStatus `json:"regions"`
}

// buildRegion snapshots one engine. workerLimit <= 0 means no cap.
func buildRegion(src Source, workerLimit int) RegionStatus {
	eng := src.Engine
	s := eng.Stats()
	rs := RegionStatus{
		ID: src.ID,
		Engine: EngineStatus{
			Tally:              s.Tally,
			Batches:            s.Batches,
			MatcherTimeSeconds: s.MatcherTime.Seconds(),
		},
	}
	depth := eng.Tasks().ShardStats()[0]
	rs.TasksBacklog = depth.Unassigned
	rs.TasksRetained = depth.Terminal
	rs.TasksBacklogHighWater = depth.UnassignedHighWater
	workers := eng.Workers()
	rs.WorkersOnline = workers.CountConnected()
	all := workers.All()
	rs.WorkersKnown = len(all)
	shown := all
	if workerLimit > 0 && len(shown) > workerLimit {
		shown = shown[:workerLimit]
	}
	rs.WorkersShown = len(shown)
	rs.WorkersElided = len(all) - len(shown)
	for _, p := range shown {
		rs.Workers = append(rs.Workers, buildWorker(p))
	}
	if adm := eng.Admission(); adm != nil {
		snap := adm.Snapshot()
		rs.Admission = &snap
	}
	return rs
}

func buildWorker(p *profile.Profile) WorkerStatus {
	w := WorkerStatus{
		ID:         p.ID(),
		Connected:  p.Connected(),
		Available:  p.Available(),
		BusyTask:   p.CurrentTask(),
		Finished:   p.Finished(),
		FitSamples: p.FitSamples(),
	}
	if acc, ok := p.OverallAccuracy(); ok {
		w.Accuracy = &acc
	}
	if m, ok := p.Model(0); ok {
		w.Model = &ModelStatus{Alpha: m.Alpha, Kmin: m.Kmin, N: m.N}
	}
	return w
}
