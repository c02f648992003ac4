package wire

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"react/internal/admission"
	"react/internal/core"
	"react/internal/federation"
	"react/internal/region"
	"react/internal/schedule"
)

// startFederation serves a 2×2 multi-region coordinator over TCP; adm, when
// non-nil, gives every region server its own admission plane.
func startFederation(t *testing.T, adm *admission.Config) *Server {
	t.Helper()
	grid, err := region.NewGrid(region.Rect{MinLat: 0, MinLon: 0, MaxLat: 4, MaxLon: 4}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	var relay ResultRelay
	coord := federation.New(grid, func(regionID string) *core.Server {
		return core.New(core.Options{
			BatchPoll:     5 * time.Millisecond,
			MonitorPeriod: 50 * time.Millisecond,
			Schedule:      schedule.Config{BatchBound: 1, BatchPeriod: 10 * time.Millisecond},
			Admission:     adm,
			OnResult:      relay.Wrap(nil),
		})
	})
	s, err := ServeRegions("127.0.0.1:0", coord, &relay)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// Tasks in two different cells of the 2×2 grid.
func neTask(id string) TaskPayload {
	return TaskPayload{ID: id, Lat: 3.6, Lon: 3.6, DeadlineMS: 60_000, Category: "traffic"}
}

func swTask(id string) TaskPayload {
	return TaskPayload{ID: id, Lat: 0.6, Lon: 0.6, DeadlineMS: 60_000, Category: "traffic"}
}

func TestFederationOverTCP(t *testing.T) {
	s := startFederation(t, nil)

	// Two workers in different regions.
	sw := dial(t, s)
	if err := sw.Register("southwest", 0.5, 0.5); err != nil {
		t.Fatal(err)
	}
	ne := dial(t, s)
	if err := ne.Register("northeast", 3.5, 3.5); err != nil {
		t.Fatal(err)
	}

	req := dial(t, s)
	if err := req.Watch(); err != nil {
		t.Fatal(err)
	}
	// A task in the northeast region must go to the northeast worker.
	if err := req.Submit(neTask("t-ne")); err != nil {
		t.Fatal(err)
	}
	select {
	case a := <-ne.Assignments():
		if a.TaskID != "t-ne" {
			t.Fatalf("assignment = %+v", a)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("northeast assignment never arrived")
	}
	select {
	case a := <-sw.Assignments():
		t.Fatalf("southwest worker received foreign task %+v", a)
	case <-time.After(200 * time.Millisecond):
	}
	if err := ne.Complete("t-ne", "northeast", "clear roads"); err != nil {
		t.Fatal(err)
	}
	// Result pushes flow from the region server through the relay.
	select {
	case r := <-req.Results():
		if r.TaskID != "t-ne" || !r.MetDeadline {
			t.Fatalf("result = %+v", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("result never arrived")
	}
	if err := req.Feedback("t-ne", true); err != nil {
		t.Fatal(err)
	}

	// Aggregated stats over the wire cover both regions.
	st, err := req.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Received != 1 || st.Completed != 1 || st.WorkersOnline != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if got := len(s.Regions()); got != 2 {
		t.Fatalf("regions = %d", got)
	}
	if s.Core() != nil {
		t.Fatal("Core() names a lone server on a multi-region transport")
	}

	// Deregister reaches the region the connection registered on — the
	// connection is the worker's route — and a second one is refused.
	if err := ne.Deregister(); err != nil {
		t.Fatal(err)
	}
	if err := ne.Deregister(); err == nil {
		t.Fatal("double deregister accepted")
	}
	if st, _ := req.Stats(); st.WorkersOnline != 1 || st.WorkersKnown != 1 {
		t.Fatalf("after deregister: stats = %+v, want only the south-west worker", st)
	}
}

func TestFederationDisconnectAndReconnect(t *testing.T) {
	s := startFederation(t, nil)
	w := dial(t, s)
	if err := w.Register("roamer", 0.5, 0.5); err != nil {
		t.Fatal(err)
	}
	req := dial(t, s)
	req.Submit(swTask("t1"))
	select {
	case a := <-w.Assignments():
		w.Complete(a.TaskID, "roamer", "ok")
		req.Feedback("t1", true)
	case <-time.After(5 * time.Second):
		t.Fatal("assignment never arrived")
	}
	w.Close()
	// Reconnect in the same region: history survives.
	deadline := time.Now().Add(2 * time.Second)
	var ok bool
	for time.Now().Before(deadline) {
		w2 := dial(t, s)
		if err := w2.Register("roamer", 0.7, 0.7); err == nil {
			st, _ := w2.Stats()
			if st.WorkersOnline >= 1 {
				ok = true
			}
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !ok {
		t.Fatal("reconnect into federation failed")
	}
}

func TestRegionsOverWire(t *testing.T) {
	s := startFederation(t, nil)
	c := dial(t, s)
	// Activate two regions.
	if err := c.Register("sw", 0.5, 0.5); err != nil {
		t.Fatal(err)
	}
	c2 := dial(t, s)
	if err := c2.Register("ne", 3.5, 3.5); err != nil {
		t.Fatal(err)
	}
	regions, err := c.Regions()
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 2 {
		t.Fatalf("regions = %+v", regions)
	}
	if regions[0].Region >= regions[1].Region {
		t.Fatalf("regions not sorted: %q, %q", regions[0].Region, regions[1].Region)
	}
	var online int
	for _, r := range regions {
		online += r.Stats.WorkersOnline
	}
	if online != 2 {
		t.Fatalf("workers across regions = %d", online)
	}
}

func TestRegionsSingleServer(t *testing.T) {
	s := startServer(t)
	c := dial(t, s)
	regions, err := c.Regions()
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 1 || regions[0].Region != "all" {
		t.Fatalf("regions = %+v", regions)
	}
}

// A region behind the coordinator runs the same admission plane a lone
// server does: the reply carries the verdict, and the per-requester bucket
// is keyed by the submitting connection.
func TestFederationAdmissionVerdicts(t *testing.T) {
	s := startFederation(t, &admission.Config{RequesterRate: 1, RequesterBurst: 1})
	req := dial(t, s)
	var rejected int
	for i := 0; i < 20; i++ {
		adm, err := req.SubmitAdmit(neTask(fmt.Sprintf("adm-%02d", i)))
		if i == 0 {
			if err != nil || adm == nil || adm.Status != string(admission.StatusAdmitted) {
				t.Fatalf("first submit: verdict = %+v, err = %v; want admitted", adm, err)
			}
			continue
		}
		if err == nil {
			continue // the bucket refilled a token mid-loop
		}
		var se *ServerError
		if !errors.As(err, &se) || se.Code != CodeRejectedRate {
			t.Fatalf("submit %d: err = %v, want a %s rejection", i, err, CodeRejectedRate)
		}
		if adm == nil || adm.Status != CodeRejectedRate || adm.RetryAfterMS <= 0 || se.Admission != adm {
			t.Fatalf("submit %d: verdict = %+v, want %s with a retry-after hint", i, adm, CodeRejectedRate)
		}
		rejected++
	}
	if rejected == 0 {
		t.Fatal("20 back-to-back submits at rate 1/burst 1: none rejected — the requester bucket is not consulted")
	}
	// The bucket is per requester: another connection starts full.
	other := dial(t, s)
	if adm, err := other.SubmitAdmit(neTask("other")); err != nil || adm == nil || adm.Status != string(admission.StatusAdmitted) {
		t.Fatalf("second requester's first submit: verdict = %+v, err = %v; want admitted", adm, err)
	}
}

func TestFederationWatchEventsTaskScoped(t *testing.T) {
	s := startFederation(t, nil)
	ne := dial(t, s)
	if err := ne.Register("northeast", 3.5, 3.5); err != nil {
		t.Fatal(err)
	}
	sw := dial(t, s)
	if err := sw.Register("southwest", 0.5, 0.5); err != nil {
		t.Fatal(err)
	}
	// Subscribe before the task exists: both regions run, neither holds it.
	watcher := dial(t, s)
	if err := watcher.WatchEvents("t-ne"); err != nil {
		t.Fatal(err)
	}
	req := dial(t, s)
	if err := req.Submit(swTask("t-sw")); err != nil {
		t.Fatal(err)
	}
	if err := req.Submit(neTask("t-ne")); err != nil {
		t.Fatal(err)
	}
	for _, w := range []*Client{sw, ne} {
		select {
		case a := <-w.Assignments():
			if err := w.Complete(a.TaskID, a.WorkerID, "ok"); err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("assignment never arrived")
		}
	}
	var kinds []string
	for _, ev := range drainTimeline(t, watcher, "t-ne") {
		if ev.TaskID != "t-ne" {
			t.Fatalf("event for %q leaked through the t-ne filter: %+v", ev.TaskID, ev)
		}
		kinds = append(kinds, ev.Kind)
	}
	if got := strings.Join(kinds, "→"); got != "submit→assign→complete" {
		t.Fatalf("timeline = %s, want submit→assign→complete", got)
	}

	// A task a region already holds is watched on that region alone: the
	// stream picks up from the next transition.
	nwTask := TaskPayload{ID: "t-nw", Lat: 3.6, Lon: 0.6, DeadlineMS: 60_000, Category: "traffic"}
	if err := req.Submit(nwTask); err != nil {
		t.Fatal(err)
	}
	late := dial(t, s)
	if err := late.WatchEvents("t-nw"); err != nil {
		t.Fatal(err)
	}
	nw := dial(t, s)
	if err := nw.Register("northwest", 3.5, 0.5); err != nil {
		t.Fatal(err)
	}
	select {
	case a := <-nw.Assignments():
		if err := nw.Complete(a.TaskID, a.WorkerID, "ok"); err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("north-west assignment never arrived")
	}
	kinds = kinds[:0]
	for _, ev := range drainTimeline(t, late, "t-nw") {
		kinds = append(kinds, ev.Kind)
	}
	if got := strings.Join(kinds, "→"); got != "assign→complete" {
		t.Fatalf("late timeline = %s, want assign→complete", got)
	}
}

func TestFederationWatchEventsUnscoped(t *testing.T) {
	s := startFederation(t, nil)
	req := dial(t, s)
	if err := req.Submit(swTask("first")); err != nil {
		t.Fatal(err)
	}
	// One running region: the unscoped stream is that region's spine.
	watcher := dial(t, s)
	if err := watcher.WatchEvents(""); err != nil {
		t.Fatalf("unscoped watch with one region running: %v", err)
	}
	if err := req.Submit(swTask("second")); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-watcher.Events():
		if ev.Kind != "submit" || ev.TaskID != "second" {
			t.Fatalf("event = %+v, want second's submit", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("unscoped stream delivered nothing")
	}
	// Two running regions: each engine owns its bus and its Seq, so an
	// unscoped stream is refused rather than silently covering one of them.
	if err := req.Submit(neTask("third")); err != nil {
		t.Fatal(err)
	}
	err := dial(t, s).WatchEvents("")
	if err == nil || !strings.Contains(err.Error(), "exactly one running region") {
		t.Fatalf("unscoped watch with two regions running: err = %v, want a refusal", err)
	}
}

// A task id no region holds answers over a federation exactly what a lone
// server answers.
func TestFederationUnknownTaskMatchesLoneServer(t *testing.T) {
	fed := startFederation(t, nil)
	fc := dial(t, fed)
	// Two running regions, neither holding "ghost".
	if err := fc.Submit(swTask("real-sw")); err != nil {
		t.Fatal(err)
	}
	if err := fc.Submit(neTask("real-ne")); err != nil {
		t.Fatal(err)
	}
	lc := dial(t, startServer(t))

	calls := []struct {
		name string
		call func(c *Client) error
	}{
		{"complete", func(c *Client) error { return c.Complete("ghost", "w", "x") }},
		{"feedback", func(c *Client) error { return c.Feedback("ghost", true) }},
	}
	for _, tc := range calls {
		want, got := tc.call(lc), tc.call(fc)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Fatalf("%s of an unknown task: federation says %v, lone server says %v", tc.name, got, want)
		}
	}
	want, err := lc.TaskStatus("ghost")
	if err != nil {
		t.Fatal(err)
	}
	got, err := fc.TaskStatus("ghost")
	if err != nil {
		t.Fatal(err)
	}
	if got != want || got.State != "unknown" {
		t.Fatalf("task status of an unknown task: federation %+v, lone server %+v", got, want)
	}
}

// Task ids are unique across a federation as they are on a lone server.
func TestFederationCrossRegionDuplicateTask(t *testing.T) {
	s := startFederation(t, nil)
	req := dial(t, s)
	if err := req.Submit(swTask("dup")); err != nil {
		t.Fatal(err)
	}
	for _, again := range []TaskPayload{neTask("dup"), swTask("dup")} {
		err := req.Submit(again)
		var se *ServerError
		if !errors.As(err, &se) || se.Code != CodeDuplicateTask {
			t.Fatalf("second submit of %q at (%v,%v): err = %v, want code %s", again.ID, again.Lat, again.Lon, err, CodeDuplicateTask)
		}
	}
	// The refused copy started its cell's server but left nothing in it.
	regions, err := req.Regions()
	if err != nil {
		t.Fatal(err)
	}
	var received int64
	for _, r := range regions {
		received += r.Stats.Received
	}
	if received != 1 {
		t.Fatalf("received across regions = %d after one accepted submit: %+v", received, regions)
	}
	if st, err := req.TaskStatus("dup"); err != nil || st.State != "unassigned" {
		t.Fatalf("status of dup = %+v, %v; want the first submit's unassigned record", st, err)
	}
}
