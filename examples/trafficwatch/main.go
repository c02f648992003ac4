// Trafficwatch: the paper's motivating scenario — real-time traffic
// estimation over a city. Requesters ask about road segments at specific
// coordinates; the scheduler uses a blended weight function (quality +
// geographic proximity, §IV.A) so that, among workers who can make the
// deadline, the ones physically near the segment are preferred. The example
// prints, for each answered task, how far the chosen worker was from the
// segment — demonstrating location-aware assignment.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"
	"sync"
	"time"

	"react/internal/engine"
	"react/internal/region"
	"react/internal/schedule"
	"react/internal/taskq"
)

// athens is the city bounding box.
var athens = region.Rect{MinLat: 37.85, MinLon: 23.60, MaxLat: 38.10, MaxLon: 23.90}

func main() {
	// Weight = 50% historical quality + 50% proximity within 8 km.
	weight := schedule.Blend(
		schedule.Term{Coef: 0.5, Fn: schedule.QualityWeight},
		schedule.Term{Coef: 0.5, Fn: schedule.DistanceWeight(8)},
	)
	// Each commuter's assignments arrive on its own channel (one slot: a
	// busy worker is offered nothing more); every channel exists before
	// Start, so the rounds only ever read the map.
	feeds := map[string]chan taskq.Record{}
	eng := engine.New(engine.Config{
		BatchPoll:     10 * time.Millisecond,
		MonitorPeriod: 100 * time.Millisecond,
		Schedule: schedule.Config{
			Weight:      weight,
			BatchBound:  4,
			BatchPeriod: 50 * time.Millisecond,
		},
	}, engine.Hooks{Deliver: func(rec taskq.Record) bool {
		select {
		case feeds[rec.Worker] <- rec:
			return true
		default:
			return false
		}
	}})

	rng := rand.New(rand.NewSource(7))
	var mu sync.Mutex
	workerLoc := map[string]region.Point{}

	// Thirty commuters spread across the city; all fast and reliable so
	// proximity dominates the choice. Each arrives with an established
	// track record (three prior completions) — otherwise the trainee rule
	// would hand everyone maximum weight and the blend would never apply.
	var wg sync.WaitGroup
	for i := 0; i < 30; i++ {
		id := fmt.Sprintf("commuter-%02d", i)
		loc := athens.RandomPoint(rng)
		workerLoc[id] = loc
		feed := make(chan taskq.Record, 1)
		feeds[id] = feed
		p, err := eng.AttachWorker(id, loc)
		if err != nil {
			log.Fatal(err)
		}
		for k := 0; k < 3; k++ {
			p.RecordCompletion("traffic", 0.02+0.01*float64(k), true)
		}
		// Each commuter draws from its own seeded stream: a *rand.Rand is
		// not safe for concurrent use.
		pace := rand.New(rand.NewSource(100 + int64(i)))
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for rec := range feed {
				time.Sleep(time.Duration(10+pace.Intn(30)) * time.Millisecond)
				if _, err := eng.Complete(rec.Task.ID, id); err == nil {
					eng.Feedback(rec.Task.ID, true)
				}
			}
		}(id)
	}
	eng.Start()

	// Road segments of interest: eight well-known spots.
	segments := []struct {
		name string
		loc  region.Point
	}{
		{"Kifisias Ave", region.Point{Lat: 38.05, Lon: 23.80}},
		{"Syntagma Sq", region.Point{Lat: 37.975, Lon: 23.735}},
		{"Piraeus Port", region.Point{Lat: 37.94, Lon: 23.64}},
		{"Attiki Odos", region.Point{Lat: 38.06, Lon: 23.70}},
		{"Omonoia", region.Point{Lat: 37.984, Lon: 23.728}},
		{"Glyfada Coast", region.Point{Lat: 37.87, Lon: 23.75}},
		{"Airport Rd", region.Point{Lat: 37.93, Lon: 23.88}},
		{"Ring Road W", region.Point{Lat: 38.00, Lon: 23.65}},
	}
	for i, seg := range segments {
		err := eng.Submit(taskq.Task{
			ID:          fmt.Sprintf("seg-%d-%s", i, seg.name),
			Location:    seg.loc,
			Deadline:    time.Now().Add(5 * time.Second),
			Reward:      0.05,
			Category:    "traffic",
			Description: fmt.Sprintf("Is %s congested right now?", seg.name),
		})
		if err != nil {
			log.Fatal(err)
		}
	}

	// Let the batcher assign and workers answer.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if st := eng.Stats(); int(st.Completed) == len(segments) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Report who answered each segment and from how far away.
	type answer struct {
		task, worker string
		km           float64
	}
	var answers []answer
	for i, seg := range segments {
		id := fmt.Sprintf("seg-%d-%s", i, seg.name)
		rec, ok := eng.Tasks().Get(id)
		if !ok || rec.Status != taskq.Completed {
			continue
		}
		mu.Lock()
		loc := workerLoc[rec.Worker]
		mu.Unlock()
		answers = append(answers, answer{seg.name, rec.Worker, loc.DistanceKm(seg.loc)})
	}
	sort.Slice(answers, func(i, j int) bool { return answers[i].km < answers[j].km })
	fmt.Printf("%-14s %-13s %s\n", "segment", "worker", "distance")
	var sum float64
	for _, a := range answers {
		fmt.Printf("%-14s %-13s %.1f km\n", a.task, a.worker, a.km)
		sum += a.km
	}
	if len(answers) > 0 {
		fmt.Printf("answered %d/%d segments, mean distance %.1f km (city spans ~30 km)\n",
			len(answers), len(segments), sum/float64(len(answers)))
	}
	eng.Stop() // no round runs after this, so the feeds can close
	for _, feed := range feeds {
		close(feed)
	}
	wg.Wait()
}
