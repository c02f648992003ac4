// Imagesearch: a CrowdSearch-style workload (the paper's reference [16]) —
// an image search engine validates its candidate results with the crowd
// under a tight deadline. Each candidate image becomes three replica
// validation tasks (voting.go); the engine takes the majority vote of
// whatever answers arrive before the deadline. The example shows how a
// requester layers redundancy and voting on top of REACT's
// single-assignment model, and how the deadline bounds end-to-end search
// latency even when some workers are slow or wrong.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strings"
	"sync"
	"time"

	"react/internal/engine"
	"react/internal/region"
	"react/internal/schedule"
	"react/internal/taskq"
)

const (
	replicas    = 3               // duplicate validations per candidate image
	searchSLA   = 3 * time.Second // end-to-end deadline for the whole search
	nCandidates = 6
)

func main() {
	votes := NewCollector(0) // strict-majority quorum

	// Each validator's assignments arrive on its own channel (one slot: a
	// busy worker is offered nothing more); every channel exists before
	// Start, so the rounds only ever read the map.
	feeds := map[string]chan engine.Assignment{}
	eng := engine.New(engine.Config{
		BatchPoll:     10 * time.Millisecond,
		MonitorPeriod: 50 * time.Millisecond,
		Schedule:      schedule.Config{BatchBound: 2, BatchPeriod: 30 * time.Millisecond},
	}, engine.Hooks{Deliver: func(a engine.Assignment) bool {
		select {
		case feeds[a.WorkerID] <- a:
			return true
		default:
			return false
		}
	}})

	loc := region.Point{Lat: 37.98, Lon: 23.73}

	// Validators: mostly careful (right 90% of the time), a few sloppy.
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		id := fmt.Sprintf("validator-%02d", i)
		careful := i < 9
		feed := make(chan engine.Assignment, 1)
		feeds[id] = feed
		if _, err := eng.AttachWorker(id, loc); err != nil {
			log.Fatal(err)
		}
		// Each validator draws from its own seeded stream: a *rand.Rand is
		// not safe for concurrent use.
		rng := rand.New(rand.NewSource(99 + int64(i)))
		wg.Add(1)
		go func(id string, careful bool) {
			defer wg.Done()
			for a := range feed {
				time.Sleep(time.Duration(20+rng.Intn(80)) * time.Millisecond)
				// Ground truth is encoded in the task description; careful
				// workers read it, sloppy ones often guess.
				vote := strings.Contains(a.Description, "[match]")
				p := 0.9
				if !careful {
					p = 0.55
				}
				if rng.Float64() > p {
					vote = !vote
				}
				answer := "no"
				if vote {
					answer = "yes"
				}
				r, _, err := eng.Complete(a.TaskID, id, answer)
				if err != nil {
					continue
				}
				eng.Feedback(a.TaskID, true)
				if !r.MetDeadline {
					continue // late answers don't make it into the vote
				}
				if err := votes.Vote(r.TaskID, r.Answer); err != nil {
					log.Printf("stray result %s: %v", r.TaskID, err)
				}
			}
		}(id, careful)
	}
	eng.Start()

	// Six candidate images; half genuinely match the query. Each becomes a
	// poll of `replicas` validation tasks.
	truth := map[string]bool{}
	deadline := time.Now().Add(searchSLA)
	for i := 0; i < nCandidates; i++ {
		name := fmt.Sprintf("img-%d", i)
		truth[name] = i%2 == 0
		tag := ""
		if truth[name] {
			tag = " [match]"
		}
		tasks, err := votes.Plan(taskq.Task{
			ID:          name,
			Location:    loc,
			Deadline:    deadline,
			Reward:      0.02,
			Category:    "image-validation",
			Description: fmt.Sprintf("Does %s show the query object?%s", name, tag),
		}, replicas)
		if err != nil {
			log.Fatal(err)
		}
		for _, task := range tasks {
			if err := eng.Submit(task); err != nil {
				log.Fatal(err)
			}
		}
	}

	// The search engine answers at the SLA with whatever votes arrived.
	time.Sleep(searchSLA + 500*time.Millisecond)
	fmt.Printf("%-8s %-6s %-7s %-8s %-7s %s\n", "image", "truth", "votes", "verdict", "quorum", "correct")
	correct := 0
	for _, v := range votes.Verdicts() {
		verdict := v.Answer == "yes"
		ok := verdict == truth[v.PollID]
		if ok {
			correct++
		}
		fmt.Printf("%-8s %-6v %d/%d     %-8v %-7v %v\n",
			v.PollID, truth[v.PollID], v.Votes, v.Total, verdict, v.Quorum, ok)
	}
	st := eng.Stats()
	fmt.Printf("verdicts correct: %d/%d; validations on time %d/%d within the %v SLA\n",
		correct, nCandidates, st.OnTime, nCandidates*replicas, searchSLA)
	eng.Stop() // no round runs after this, so the feeds can close
	for _, feed := range feeds {
		close(feed)
	}
	wg.Wait()
}
