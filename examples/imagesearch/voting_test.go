package main

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"react/internal/taskq"
)

func baseTask(id string) taskq.Task {
	return taskq.Task{
		ID:       id,
		Deadline: time.Now().Add(time.Minute),
		Category: "image-validation",
	}
}

func TestReplicaIDRoundTrip(t *testing.T) {
	id := ReplicaTaskID("img-7", 2)
	poll, ok := SplitReplica(id)
	if !ok || poll != "img-7" {
		t.Fatalf("SplitReplica(%q) = %q, %v", id, poll, ok)
	}
	if _, ok := SplitReplica("plain-task"); ok {
		t.Fatal("non-replica id split successfully")
	}
}

func TestPlanCreatesReplicas(t *testing.T) {
	c := NewCollector(0)
	tasks, err := c.Plan(baseTask("img-1"), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 3 {
		t.Fatalf("planned %d tasks", len(tasks))
	}
	seen := map[string]bool{}
	for _, task := range tasks {
		if seen[task.ID] {
			t.Fatalf("duplicate replica id %q", task.ID)
		}
		seen[task.ID] = true
		if poll, ok := SplitReplica(task.ID); !ok || poll != "img-1" {
			t.Fatalf("replica id %q does not map back", task.ID)
		}
		if task.Category != "image-validation" {
			t.Fatal("base fields not copied")
		}
	}
}

func TestPlanValidation(t *testing.T) {
	c := NewCollector(0)
	if _, err := c.Plan(baseTask("p"), 0); err == nil {
		t.Fatal("zero replicas accepted")
	}
	if _, err := c.Plan(baseTask("bad"+sep+"id"), 2); err == nil {
		t.Fatal("reserved separator accepted")
	}
	if _, err := c.Plan(baseTask("p"), 2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Plan(baseTask("p"), 2); err == nil {
		t.Fatal("duplicate poll accepted")
	}
}

func TestMajorityVerdict(t *testing.T) {
	c := NewCollector(0)
	c.Plan(baseTask("img"), 3)
	c.Vote(ReplicaTaskID("img", 0), "yes")
	c.Vote(ReplicaTaskID("img", 1), "no")
	c.Vote(ReplicaTaskID("img", 2), "yes")
	v, err := c.Verdict("img")
	if err != nil {
		t.Fatal(err)
	}
	if v.Answer != "yes" || v.Votes != 2 || v.Total != 3 || !v.Quorum {
		t.Fatalf("verdict = %+v", v)
	}
}

func TestQuorumWithMissingVotes(t *testing.T) {
	// 3 replicas, only 1 on-time vote: majority quorum (2) not reached.
	c := NewCollector(0)
	c.Plan(baseTask("img"), 3)
	c.Vote(ReplicaTaskID("img", 0), "yes")
	v, _ := c.Verdict("img")
	if v.Quorum {
		t.Fatalf("quorum with 1/3 votes: %+v", v)
	}
	if v.Answer != "yes" || v.Total != 1 {
		t.Fatalf("verdict = %+v", v)
	}
}

func TestExplicitQuorum(t *testing.T) {
	c := NewCollector(1) // any single vote decides
	c.Plan(baseTask("img"), 5)
	c.Vote(ReplicaTaskID("img", 3), "no")
	v, _ := c.Verdict("img")
	if !v.Quorum || v.Answer != "no" {
		t.Fatalf("verdict = %+v", v)
	}
}

func TestTieBreaksDeterministically(t *testing.T) {
	c := NewCollector(0)
	c.Plan(baseTask("img"), 2)
	c.Vote(ReplicaTaskID("img", 0), "zebra")
	c.Vote(ReplicaTaskID("img", 1), "apple")
	v, _ := c.Verdict("img")
	if v.Answer != "apple" { // lexicographic tie-break
		t.Fatalf("tie resolved to %q", v.Answer)
	}
}

func TestEmptyPollVerdict(t *testing.T) {
	c := NewCollector(0)
	c.Plan(baseTask("img"), 3)
	v, err := c.Verdict("img")
	if err != nil {
		t.Fatal(err)
	}
	if v.Answer != "" || v.Votes != 0 || v.Quorum {
		t.Fatalf("empty verdict = %+v", v)
	}
}

func TestVoteErrors(t *testing.T) {
	c := NewCollector(0)
	if err := c.Vote("no-suffix", "x"); !errors.Is(err, ErrUnknownReplica) {
		t.Fatalf("err = %v", err)
	}
	if err := c.Vote(ReplicaTaskID("ghost", 0), "x"); !errors.Is(err, ErrUnknownReplica) {
		t.Fatalf("err = %v", err)
	}
	if _, err := c.Verdict("ghost"); !errors.Is(err, ErrUnknownReplica) {
		t.Fatalf("err = %v", err)
	}
}

func TestVerdictsSorted(t *testing.T) {
	c := NewCollector(0)
	for _, id := range []string{"c", "a", "b"} {
		c.Plan(baseTask(id), 1)
		c.Vote(ReplicaTaskID(id, 0), "v-"+id)
	}
	vs := c.Verdicts()
	if len(vs) != 3 || vs[0].PollID != "a" || vs[2].PollID != "c" {
		t.Fatalf("verdicts = %+v", vs)
	}
}

func TestConcurrentVoting(t *testing.T) {
	c := NewCollector(0)
	const polls, votes = 20, 50
	for p := 0; p < polls; p++ {
		c.Plan(baseTask(fmt.Sprintf("p%02d", p)), votes)
	}
	var wg sync.WaitGroup
	for p := 0; p < polls; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for v := 0; v < votes; v++ {
				ans := "yes"
				if v%3 == 0 {
					ans = "no"
				}
				if err := c.Vote(ReplicaTaskID(fmt.Sprintf("p%02d", p), v), ans); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	for _, v := range c.Verdicts() {
		if v.Answer != "yes" || v.Total != votes || !v.Quorum {
			t.Fatalf("verdict = %+v", v)
		}
	}
}
