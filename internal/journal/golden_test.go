package journal

import (
	"math"
	"time"

	"react/internal/event"
	"react/internal/taskq"
)

// goldenRecords is the record stream behind testdata/golden.wal and
// testdata/golden.snap (the state it replays to). Both files were written by
// the commit before the record codec existed — json.Marshal per frame,
// json.Encoder per snapshot line — and are never regenerated: they are what
// "the bytes on disk did not change" is checked against. The stream covers
// every kind, a cause-bearing revoke and a shed expiry, zero, whole-second,
// fractional and zoned times, floats on both sides of encoding/json's
// exponent cut-offs, and strings the codec must hand to encoding/json.
func goldenRecords() []Record {
	at := func(d time.Duration) time.Time { return testEpoch.Add(d) }
	task := func(id string, edit func(*taskq.Record)) *taskq.Record {
		r := &taskq.Record{Task: taskq.Task{
			ID:        id,
			Deadline:  at(time.Minute),
			Reward:    1,
			Category:  "ocr",
			Submitted: at(0),
		}}
		r.Task.Location.Lat, r.Task.Location.Lon = 40.7128, -74.006
		if edit != nil {
			edit(r)
		}
		return r
	}
	held := func(worker string, attempts int, since time.Duration) func(*taskq.Record) {
		return func(r *taskq.Record) {
			r.Status, r.Worker, r.Attempts, r.AssignedAt = taskq.Assigned, worker, attempts, at(since)
		}
	}
	recs := []Record{
		{Kind: event.KindAttach, Worker: "w1", Lat: 40.7128, Lon: -74.006},
		{Kind: event.KindAttach, Worker: "w2", Lat: -33.5, Lon: 151.25},
		{Kind: event.KindAttach, Worker: "w3"}, // null island: lat and lon omitted

		{Kind: event.KindSubmit, Task: task("t1", nil)},
		{Kind: event.KindAssign, Task: task("t1", held("w1", 1, 1500*time.Millisecond+7))},
		{Kind: event.KindRevoke, Cause: taskq.CauseEq2, Task: task("t1", func(r *taskq.Record) { r.Attempts = 1 })},
		{Kind: event.KindAssign, Task: task("t1", held("w2", 2, 3*time.Second))},
		{Kind: event.KindComplete, Task: task("t1", func(r *taskq.Record) {
			held("w2", 2, 3*time.Second)(r)
			r.Status, r.FinishedAt = taskq.Completed, at(3*time.Second+123456789)
		})},
		{Kind: event.KindFeedback, TaskID: "t1", Worker: "w2", Category: "ocr", Positive: true},

		// Floats: tiny and huge take the exponent form, with encoding/json's
		// "e-07" → "e-7" clean-up; negative zero keeps its sign.
		{Kind: event.KindSubmit, Task: task("t2", func(r *taskq.Record) {
			r.Task.Reward, r.Task.Location.Lat, r.Task.Location.Lon = 1e-7, -89.99999999, math.Copysign(0, -1)
		})},
		{Kind: event.KindExpire, Cause: taskq.CauseShed, Task: task("t2", func(r *taskq.Record) {
			r.Task.Reward, r.Task.Location.Lat, r.Task.Location.Lon = 1e-7, -89.99999999, math.Copysign(0, -1)
			r.Status, r.FinishedAt = taskq.Expired, at(20*time.Millisecond)
		})},
		{Kind: event.KindSubmit, Task: task("t3", func(r *taskq.Record) {
			r.Task.Reward, r.Task.Location.Lat, r.Task.Location.Lon = 1.5e21, 2.5e-9, 999999999999999900000
		})},
		{Kind: event.KindExpire, Task: task("t3", func(r *taskq.Record) { // the deadline's doing: no cause
			r.Task.Reward, r.Task.Location.Lat, r.Task.Location.Lon = 1.5e21, 2.5e-9, 999999999999999900000
			r.Status, r.FinishedAt = taskq.Expired, at(time.Minute)
		})},
		{Kind: event.KindSubmit, Task: task("t4", func(r *taskq.Record) {
			r.Task.Reward, r.Task.Location.Lat = -3.25, 0.000001
			r.Task.Description = "count the cars" // plain: stays on the fast path
		})},

		// Strings the codec declines: JSON escapes, HTML escapes, non-ASCII.
		{Kind: event.KindSubmit, Task: task("t5", func(r *taskq.Record) {
			r.Task.Description = "scan <receipt> & say \"total\"\n\tper line \\ page"
		})},
		{Kind: event.KindSubmit, Task: task("t6", func(r *taskq.Record) {
			r.Task.Category = "café"
			// A zoned deadline, as a server running outside UTC stamps it.
			r.Task.Deadline = at(time.Hour).In(time.FixedZone("", -5*3600))
			r.Task.Submitted = at(250 * time.Millisecond).In(time.FixedZone("", 5*3600+1800))
		})},
		{Kind: event.KindAssign, Task: task("t5", func(r *taskq.Record) {
			r.Task.Description = "scan <receipt> & say \"total\"\n\tper line \\ page"
			held("w1", 1, 4*time.Second)(r)
		})},
		{Kind: event.KindFeedback, TaskID: "t4", Worker: "w1", Category: "q&a"},
		{Kind: event.KindFeedback, TaskID: "t3", Worker: "w2", Category: "ocr"}, // negative: positive omitted

		{Kind: event.KindForget, TaskID: "t2"},
		{Kind: event.KindDeregister, Worker: "w3"},
		{Kind: event.KindAttach, Worker: "wé", Lat: 1e-7, Lon: -2.5e-7},
	}
	for i := range recs {
		recs[i].Seq = uint64(i + 1)
	}
	return recs
}
