package wire

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"react/internal/admission"
	"react/internal/engine"
	"react/internal/region"
	"react/internal/schedule"
)

// twoByTwo decomposes a 4°×4° box into four regions.
func twoByTwo(t *testing.T) *region.Grid {
	t.Helper()
	g, err := region.NewGrid(region.Rect{MinLat: 0, MinLon: 0, MaxLat: 4, MaxLon: 4}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// fastConfig makes a region's loops hum in tests; adm, when non-nil, gives
// every region its own admission plane.
func fastConfig(adm *admission.Config) engine.Config {
	return engine.Config{
		BatchPoll:     5 * time.Millisecond,
		MonitorPeriod: 50 * time.Millisecond,
		Schedule:      schedule.Config{BatchBound: 1, BatchPeriod: 10 * time.Millisecond},
		Admission:     adm,
	}
}

// startFederation serves a 2×2 grid of regions over TCP.
func startFederation(t *testing.T, adm *admission.Config) *Server {
	t.Helper()
	s, err := ServeGrid("127.0.0.1:0", twoByTwo(t), fastConfig(adm), nil)
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
	// The completing connection pushes the result to watchers.
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
	s := startFederation(t, &admission.Config{RequesterRate: 0.5}) // a bucket of one token
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
		t.Fatal("20 back-to-back submits at rate 0.5/burst 1: none rejected — the requester bucket is not consulted")
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

// A region the coordinator first starts after a requester began watching
// still pushes its expiries to that watcher.
func TestFederationExpiryInLateRegion(t *testing.T) {
	s := startFederation(t, nil)
	req := dial(t, s)
	if err := req.Watch(); err != nil {
		t.Fatal(err)
	}
	if n := len(s.Regions()); n != 0 {
		t.Fatalf("%d regions running before the first submit", n)
	}
	task := neTask("late")
	task.DeadlineMS = 50 // no worker anywhere: it must expire
	if err := req.Submit(task); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-req.Results():
		if r.TaskID != "late" || !r.Expired {
			t.Fatalf("result = %+v", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("expiry in a lazily started region never reached the watcher")
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

// Two first submits of one id racing into different cells must not both
// land: the cross-region duplicate check and the submit are one step.
func TestFederationConcurrentDuplicateSubmit(t *testing.T) {
	rounds := 200
	if testing.Short() {
		rounds = 50
	}
	s := startFederation(t, nil)
	clients := [2]*Client{dial(t, s), dial(t, s)}
	place := [2]func(string) TaskPayload{neTask, swTask}
	for i := 0; i < rounds; i++ {
		id := fmt.Sprintf("race-%d", i)
		var errs [2]error
		var wg sync.WaitGroup
		start := make(chan struct{})
		for k := range clients {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				<-start
				errs[k] = clients[k].Submit(place[k](id))
			}(k)
		}
		close(start)
		wg.Wait()
		accepted := 0
		for _, err := range errs {
			var se *ServerError
			switch {
			case err == nil:
				accepted++
			case !errors.As(err, &se) || se.Code != CodeDuplicateTask:
				t.Fatalf("%s: err = %v, want nil or code %s", id, err, CodeDuplicateTask)
			}
		}
		if accepted != 1 {
			t.Fatalf("%s: %d of two racing submits accepted, want exactly one", id, accepted)
		}
	}
	var received int64
	for _, r := range s.Regions() {
		received += r.Stats().Received
	}
	if received != int64(rounds) {
		t.Fatalf("received across regions = %d after %d rounds", received, rounds)
	}
}

var (
	southWest = region.Point{Lat: 0.5, Lon: 0.5}
	northEast = region.Point{Lat: 3.5, Lon: 3.5}
)

// at resolves loc's region, failing the test when the server refuses.
func at(t *testing.T, s *Server, loc region.Point) *Region {
	t.Helper()
	r, err := s.at(loc)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func regionIDs(s *Server) []string {
	var ids []string
	for _, r := range s.Regions() {
		ids = append(ids, r.ID)
	}
	return ids
}

func TestFederationLazyRegions(t *testing.T) {
	var mu sync.Mutex
	starts := map[string]int{}
	s, err := ServeGrid("127.0.0.1:0", twoByTwo(t), fastConfig(nil), func(r *Region) {
		mu.Lock()
		starts[r.ID]++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if got := len(s.Regions()); got != 0 {
		t.Fatalf("regions before traffic = %d", got)
	}
	sw := at(t, s, southWest)
	if got := regionIDs(s); len(got) != 1 || got[0] != "r0c0" {
		t.Fatalf("regions = %v", got)
	}
	if again := at(t, s, region.Point{Lat: 0.7, Lon: 0.9}); again != sw {
		t.Fatal("second lookup in the same cell started a second region")
	}
	if ne := at(t, s, northEast); ne == sw {
		t.Fatal("distinct cells share a region")
	}
	if got := regionIDs(s); len(got) != 2 || got[0] != "r0c0" || got[1] != "r1c1" {
		t.Fatalf("regions after cross-region traffic = %v, want sorted [r0c0 r1c1]", got)
	}

	// Concurrent first uses of one cell start it once and share it.
	const racers = 8
	got := make([]*Region, racers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = s.at(region.Point{Lat: 3.5, Lon: 0.5})
		}()
	}
	wg.Wait()
	for i, r := range got {
		if r == nil || r != got[0] {
			t.Fatalf("racer %d got region %p, racer 0 got %p", i, r, got[0])
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if want := map[string]int{"r0c0": 1, "r1c1": 1, "r1c0": 1}; fmt.Sprint(starts) != fmt.Sprint(want) {
		t.Fatalf("onStart calls = %v, want %v", starts, want)
	}
}

// gatedGrid serves a 2×2 grid whose onStart blocks in cell gated until
// the returned release is called; entered is closed once it blocks there.
// Cleanup releases the gate before it closes the server.
func gatedGrid(t *testing.T, gated string) (s *Server, entered <-chan struct{}, release func()) {
	t.Helper()
	in, gate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	s, err := ServeGrid("127.0.0.1:0", twoByTwo(t), fastConfig(nil), func(r *Region) {
		if r.ID == gated {
			close(in)
			<-gate
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	t.Cleanup(release)
	return s, in, release
}

// TestFederationSlowStartBlocksOnlyItsCell: while one cell's onStart is
// blocked, a running cell serves register, submit, stats and Regions, and
// the blocked cell's own lookups wait for its start to finish.
func TestFederationSlowStartBlocksOnlyItsCell(t *testing.T) {
	s, entered, release := gatedGrid(t, "r1c1")
	at(t, s, southWest)
	worker, req := dial(t, s), dial(t, s)

	slow := make(chan *Region, 1)
	go func() {
		r, _ := s.at(northEast)
		slow <- r
	}()
	<-entered

	served := make(chan error, 1)
	go func() {
		if err := worker.Register("alice", southWest.Lat, southWest.Lon); err != nil {
			served <- err
			return
		}
		if err := req.Submit(swTask("t1")); err != nil {
			served <- err
			return
		}
		st, err := req.Stats()
		if err == nil && st.Received != 1 {
			err = fmt.Errorf("stats = %+v, want one task received", st)
		}
		served <- err
	}()
	select {
	case err := <-served:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a running cell's requests waited on another cell's onStart")
	}
	if got := regionIDs(s); len(got) != 2 || got[0] != "r0c0" || got[1] != "r1c1" {
		t.Fatalf("regions while r1c1 starts = %v, want [r0c0 r1c1]", got)
	}
	select {
	case <-slow:
		t.Fatal("a lookup returned the starting cell before its onStart did")
	case <-time.After(20 * time.Millisecond):
	}
	release()
	select {
	case r := <-slow:
		if r == nil || r.ID != "r1c1" {
			t.Fatalf("starting cell's lookup = %v", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the starting cell never came up")
	}
}

// TestFederationCloseWaitsForStart: Close issued while a region's onStart
// is blocked returns only after that start finishes, stops the region's
// engine too, and later lookups are refused.
func TestFederationCloseWaitsForStart(t *testing.T) {
	loops := engineLoops()
	s, entered, release := gatedGrid(t, "r1c1")
	go s.at(northEast)
	<-entered

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case <-closed:
		t.Fatal("Close returned while a start was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	release()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned")
	}
	if got := engineLoops(); got != loops {
		t.Fatalf("engine loops running after Close = %d, want %d", got, loops)
	}
	for _, loc := range []region.Point{northEast, southWest} {
		if _, err := s.at(loc); !errors.Is(err, ErrClosed) {
			t.Fatalf("at(%v) after Close: err = %v, want ErrClosed", loc, err)
		}
	}
}

// engineLoops counts the goroutines running an engine's live loop.
func engineLoops() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), "react/internal/engine.(*Engine).run")
}

func TestFederationSameRegionTaskCompletes(t *testing.T) {
	s := startFederation(t, nil)
	w := dial(t, s)
	if err := w.Register("alice", southWest.Lat, southWest.Lon); err != nil {
		t.Fatal(err)
	}
	req := dial(t, s)
	if err := req.Submit(swTask("t1")); err != nil {
		t.Fatal(err)
	}
	select {
	case a := <-w.Assignments():
		if a.TaskID != "t1" {
			t.Fatalf("assignment = %+v", a)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("same-region assignment never arrived")
	}
	// The task's route is the region that holds it.
	if owner, ok := s.holder("t1"); !ok || owner != at(t, s, southWest) {
		t.Fatalf("holder(t1) = %v, %v; want the south-west region", owner, ok)
	}
	if err := w.Complete("t1", "alice", "ok"); err != nil {
		t.Fatal(err)
	}
	if st, _ := req.TaskStatus("t1"); st.State != "completed" || !st.MetDeadline {
		t.Fatalf("status = %+v", st)
	}
	if err := req.Feedback("t1", true); err != nil {
		t.Fatal(err)
	}
}

func TestFederationCrossRegionIsolation(t *testing.T) {
	s := startFederation(t, nil)
	// Worker in r0c0; task in r1c1 — the worker must never receive it.
	w := dial(t, s)
	if err := w.Register("homebody", southWest.Lat, southWest.Lon); err != nil {
		t.Fatal(err)
	}
	if err := dial(t, s).Submit(neTask("far")); err != nil {
		t.Fatal(err)
	}
	select {
	case a := <-w.Assignments():
		t.Fatalf("cross-region assignment leaked: %+v", a)
	case <-time.After(300 * time.Millisecond):
	}
	// The far task is still waiting in its own region.
	far := at(t, s, northEast)
	if owner, ok := s.holder("far"); !ok || owner != far {
		t.Fatalf("holder(far) = %v, %v; want the north-east region", owner, ok)
	}
	if st := far.Stats(); st.Received != 1 || st.Assigned != 0 {
		t.Fatalf("far region stats = %+v", st)
	}
}

func TestFederationAggregatedStats(t *testing.T) {
	s := startFederation(t, nil)
	cells := []region.Point{
		{Lat: 0.5, Lon: 0.5}, {Lat: 0.5, Lon: 3.5},
		{Lat: 3.5, Lon: 0.5}, {Lat: 3.5, Lon: 3.5},
	}
	req := dial(t, s)
	var wg sync.WaitGroup
	for i, loc := range cells {
		id := fmt.Sprintf("w%d", i)
		w := dial(t, s)
		if err := w.Register(id, loc.Lat, loc.Lon); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range w.Assignments() {
				w.Complete(a.TaskID, id, "done")
			}
		}()
		task := TaskPayload{ID: fmt.Sprintf("t%d", i), Lat: loc.Lat, Lon: loc.Lon, DeadlineMS: 60_000, Category: "traffic"}
		if err := req.Submit(task); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && s.Stats().Completed != 4 {
		time.Sleep(5 * time.Millisecond)
	}
	st := s.Stats()
	if st.Received != 4 || st.Completed != 4 || st.WorkersOnline != 4 {
		t.Fatalf("aggregate stats = %+v", st)
	}
	if len(s.Regions()) != 4 {
		t.Fatalf("regions = %v", regionIDs(s))
	}
	s.Close() // drops the worker connections, closing their feeds
	wg.Wait()
}

func TestFederationUnknownTaskRouting(t *testing.T) {
	s := startFederation(t, nil)
	if _, ok := s.holder("ghost"); ok {
		t.Fatal("unknown task resolved with no region running")
	}
	if err := dial(t, s).Submit(swTask("real")); err != nil {
		t.Fatal(err)
	}
	at(t, s, northEast)
	if _, ok := s.holder("ghost"); ok {
		t.Fatal("unknown task resolved to a region")
	}
	if _, ok := s.holder("real"); !ok {
		t.Fatal("held task did not resolve")
	}
}

func TestFederationClosedAfterClose(t *testing.T) {
	s, err := ServeGrid("127.0.0.1:0", twoByTwo(t), fastConfig(nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	running := at(t, s, southWest)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// Neither a running region nor a new one is handed out after Close.
	for _, loc := range []region.Point{southWest, {Lat: 3.9, Lon: 3.9}} {
		if _, err := s.at(loc); !errors.Is(err, ErrClosed) {
			t.Fatalf("at(%v) after Close: err = %v, want ErrClosed", loc, err)
		}
	}
	// The region that was running is itself stopped: its loops tick no
	// more, so an overdue task stays unexpired.
	task := swTask("t").Task(time.Now())
	task.Deadline = time.Now().Add(time.Millisecond)
	if err := running.Submit(task); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // ten poll periods
	if st := running.Stats(); st.Expired != 0 {
		t.Fatalf("a stopped region still ticks: stats = %+v", st)
	}
}
