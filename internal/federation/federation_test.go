package federation

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"react/internal/core"
	"react/internal/region"
	"react/internal/schedule"
	"react/internal/taskq"
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

func fastFactory(string) *core.Server {
	return core.New(core.Options{
		BatchPoll:     5 * time.Millisecond,
		MonitorPeriod: 50 * time.Millisecond,
		Schedule:      schedule.Config{BatchBound: 1, BatchPeriod: 10 * time.Millisecond},
	})
}

func newCoordinator(t *testing.T) *Coordinator {
	t.Helper()
	c := New(twoByTwo(t), fastFactory)
	t.Cleanup(c.Stop)
	return c
}

func task(id string, at region.Point) taskq.Task {
	return taskq.Task{
		ID:       id,
		Location: at,
		Deadline: time.Now().Add(time.Minute),
		Category: "traffic",
	}
}

// at resolves loc's region server, failing the test when the coordinator
// refuses.
func at(t *testing.T, c *Coordinator, loc region.Point) *core.Server {
	t.Helper()
	s, err := c.At(loc)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func regionIDs(c *Coordinator) []string {
	var ids []string
	for _, r := range c.Regions() {
		ids = append(ids, r.ID)
	}
	return ids
}

var (
	southWest = region.Point{Lat: 0.5, Lon: 0.5}
	northEast = region.Point{Lat: 3.5, Lon: 3.5}
)

func TestLazyServerCreation(t *testing.T) {
	c := newCoordinator(t)
	if got := len(c.Regions()); got != 0 {
		t.Fatalf("regions before traffic = %d", got)
	}
	sw := at(t, c, southWest)
	if got := regionIDs(c); len(got) != 1 || got[0] != "r0c0" {
		t.Fatalf("regions = %v", got)
	}
	if again := at(t, c, region.Point{Lat: 0.7, Lon: 0.9}); again != sw {
		t.Fatal("second lookup in the same cell started a second server")
	}
	if ne := at(t, c, northEast); ne == sw {
		t.Fatal("distinct cells share a server")
	}
	if got := regionIDs(c); len(got) != 2 || got[0] != "r0c0" || got[1] != "r1c1" {
		t.Fatalf("regions after cross-region traffic = %v, want sorted [r0c0 r1c1]", got)
	}
}

func TestSameRegionTaskCompletes(t *testing.T) {
	c := newCoordinator(t)
	s := at(t, c, southWest)
	feed, err := s.RegisterWorker("alice", southWest)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(task("t1", southWest)); err != nil {
		t.Fatal(err)
	}
	select {
	case a := <-feed:
		if a.TaskID != "t1" {
			t.Fatalf("assignment = %+v", a)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("same-region assignment never arrived")
	}
	// The task's route is the region server that holds it.
	owner, ok := c.OfTask("t1")
	if !ok || owner != s {
		t.Fatalf("OfTask(t1) = %p, %v; want the south-west server %p", owner, ok, s)
	}
	res, err := owner.Complete("t1", "alice", "ok")
	if err != nil {
		t.Fatal(err)
	}
	if !res.MetDeadline {
		t.Fatalf("result = %+v", res)
	}
	if err := owner.Feedback("t1", true); err != nil {
		t.Fatal(err)
	}
}

func TestCrossRegionIsolation(t *testing.T) {
	c := newCoordinator(t)
	// Worker in r0c0; task in r1c1 — the worker must never receive it.
	feed, err := at(t, c, southWest).RegisterWorker("homebody", southWest)
	if err != nil {
		t.Fatal(err)
	}
	far := at(t, c, northEast)
	if err := far.Submit(task("far", northEast)); err != nil {
		t.Fatal(err)
	}
	select {
	case a := <-feed:
		t.Fatalf("cross-region assignment leaked: %+v", a)
	case <-time.After(300 * time.Millisecond):
	}
	// The far task is still waiting in its own region.
	if owner, ok := c.OfTask("far"); !ok || owner != far {
		t.Fatalf("OfTask(far) = %p, %v; want the north-east server", owner, ok)
	}
	if st := far.Stats(); st.Received != 1 || st.Assigned != 0 {
		t.Fatalf("far region stats = %+v", st)
	}
}

// totalStats sums the running regions the way wire.Server.Stats does.
func totalStats(c *Coordinator) core.Stats {
	var total core.Stats
	for _, r := range c.Regions() {
		total.Add(r.Server.Stats())
	}
	return total
}

func TestAggregatedStats(t *testing.T) {
	c := newCoordinator(t)
	cells := []region.Point{
		{Lat: 0.5, Lon: 0.5}, {Lat: 0.5, Lon: 3.5},
		{Lat: 3.5, Lon: 0.5}, {Lat: 3.5, Lon: 3.5},
	}
	var wg sync.WaitGroup
	for i, loc := range cells {
		id := fmt.Sprintf("w%d", i)
		s := at(t, c, loc)
		feed, err := s.RegisterWorker(id, loc)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(id string, feed <-chan core.Assignment) {
			defer wg.Done()
			for a := range feed {
				s.Complete(a.TaskID, id, "done")
			}
		}(id, feed)
		if err := s.Submit(task(fmt.Sprintf("t%d", i), loc)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st := totalStats(c); st.Completed == 4 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := totalStats(c)
	if st.Received != 4 || st.Completed != 4 || st.WorkersOnline != 4 {
		t.Fatalf("aggregate stats = %+v", st)
	}
	if len(c.Regions()) != 4 {
		t.Fatalf("regions = %v", regionIDs(c))
	}
	c.Stop()
	wg.Wait()
}

func TestUnknownTaskRouting(t *testing.T) {
	c := newCoordinator(t)
	if _, ok := c.OfTask("ghost"); ok {
		t.Fatal("unknown task resolved with no region running")
	}
	at(t, c, southWest).Submit(task("real", southWest))
	at(t, c, northEast)
	if _, ok := c.OfTask("ghost"); ok {
		t.Fatal("unknown task resolved to a region")
	}
	if _, ok := c.OfTask("real"); !ok {
		t.Fatal("held task did not resolve")
	}
}

func TestStopIsIdempotentAndBlocksNewTraffic(t *testing.T) {
	c := newCoordinator(t)
	running := at(t, c, southWest)
	running.Submit(task("t", southWest))
	c.Stop()
	c.Stop()
	// Neither a running region nor a new one is handed out after Stop,
	// and the region server that was running is itself stopped.
	for _, loc := range []region.Point{southWest, {Lat: 3.9, Lon: 3.9}} {
		if _, err := c.At(loc); !errors.Is(err, core.ErrStopped) {
			t.Fatalf("At(%v) after stop: err = %v, want core.ErrStopped", loc, err)
		}
	}
	if _, err := running.RegisterWorker("late", southWest); !errors.Is(err, core.ErrStopped) {
		t.Fatalf("register on a stopped region: err = %v, want core.ErrStopped", err)
	}
}
