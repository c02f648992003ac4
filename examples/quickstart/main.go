// Quickstart: embed a REACT scheduling engine in-process, run five
// goroutine workers against it, submit twenty deadline-bound tasks, and
// print the outcome. This is the smallest complete use of the middleware:
// attach workers, submit tasks, drain assignment feeds, complete, grade.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"react/internal/engine"
	"react/internal/region"
	"react/internal/schedule"
	"react/internal/taskq"
)

func main() {
	// Each worker's assignments arrive on its own channel: the Deliver hook
	// is the transport. A busy worker is offered nothing until its task is
	// done, so one slot is enough; a refused delivery would put the task
	// back in the pool. The loops are snappy: quickstart tasks live for
	// seconds, not minutes.
	feeds := map[string]chan taskq.Record{}
	eng := engine.New(engine.Config{
		BatchPoll:     10 * time.Millisecond,
		MonitorPeriod: 50 * time.Millisecond,
		Schedule:      schedule.Config{BatchBound: 3, BatchPeriod: 50 * time.Millisecond},
	}, engine.Hooks{Deliver: func(rec taskq.Record) bool {
		select {
		case feeds[rec.Worker] <- rec:
			return true
		default:
			return false
		}
	}})

	athens := region.Point{Lat: 37.98, Lon: 23.73}
	var completed atomic.Int32
	var wg sync.WaitGroup

	// Five workers with different speeds. Each drains its assignment feed,
	// "works" for its personal duration, and submits an answer. Every feed
	// exists before Start, so the rounds only ever read the map.
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("worker-%d", i)
		speed := time.Duration(20+30*i) * time.Millisecond
		feed := make(chan taskq.Record, 1)
		feeds[id] = feed
		if _, err := eng.AttachWorker(id, athens); err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rec := range feed {
				time.Sleep(speed)
				if _, err := eng.Complete(rec.Task.ID, rec.Worker); err == nil {
					completed.Add(1)
					// The requester grades timely work positively, which
					// feeds the Eq. 1 quality weights for future batches.
					eng.Feedback(rec.Task.ID, true)
				}
			}
		}()
	}
	eng.Start()

	// Twenty tasks with 2-second deadlines.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		err := eng.Submit(taskq.Task{
			ID:          fmt.Sprintf("task-%02d", i),
			Location:    athens,
			Deadline:    time.Now().Add(2 * time.Second),
			Reward:      0.01 + rng.Float64()*0.09,
			Category:    "traffic",
			Description: "Is the ring road congested?",
		})
		if err != nil {
			log.Fatal(err)
		}
	}

	// Wait for everything to finish (bounded).
	deadline := time.Now().Add(10 * time.Second)
	for completed.Load() < 20 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	eng.Stop() // no round runs after this, so the feeds can close
	for _, feed := range feeds {
		close(feed)
	}
	wg.Wait()

	st := eng.Stats()
	fmt.Printf("submitted 20 tasks → completed %d, on time %d, batches %d, matcher time %v\n",
		st.Completed, st.OnTime, st.Batches, st.MatcherTime.Round(time.Microsecond))
	for _, p := range eng.Workers().All() {
		acc, _ := p.OverallAccuracy()
		fmt.Printf("  %s finished %d tasks (accuracy %.2f)\n", p.ID(), p.Finished(), acc)
	}
}
