package main

// Requester-side redundancy on top of REACT's single-assignment model:
// replicate a question into k tasks, collect the answers that arrive before
// the deadline, and resolve them by majority. This is the aggregation
// pattern of CrowdSearch and CDAS (the paper's references [16] and [28]);
// the paper positions REACT as reducing how much such redundancy costs,
// since better worker selection needs fewer replicas for the same
// confidence.

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"react/internal/taskq"
)

// ErrUnknownReplica is returned for votes on tasks no poll created.
var ErrUnknownReplica = errors.New("voting: unknown replica task")

// sep joins a poll ID and replica ordinal into a task ID; ReplicaTaskID and
// SplitReplica are inverses.
const sep = "#rep"

// ReplicaTaskID names the i-th replica task of a poll.
func ReplicaTaskID(pollID string, i int) string {
	return fmt.Sprintf("%s%s%d", pollID, sep, i)
}

// SplitReplica extracts the poll ID from a replica task ID.
func SplitReplica(taskID string) (pollID string, ok bool) {
	i := strings.LastIndex(taskID, sep)
	if i < 0 {
		return "", false
	}
	return taskID[:i], true
}

// Verdict is the resolution of one poll.
type Verdict struct {
	PollID   string
	Answer   string // winning answer ("" when no votes arrived)
	Votes    int    // votes for the winner
	Total    int    // votes received
	Replicas int    // replicas issued
	Quorum   bool   // winner reached the configured quorum
}

// Poll tracks the replicas and votes of one replicated question.
type poll struct {
	replicas int
	votes    map[string]int // answer → count
	received int
}

// Collector accumulates votes across polls. Safe for concurrent use — the
// result hook of a live server may feed it directly.
type Collector struct {
	mu     sync.Mutex
	quorum int // minimum winning votes for Quorum (default: majority of replicas)
	polls  map[string]*poll
}

// NewCollector creates a collector. quorum ≤ 0 means strict majority of the
// issued replicas.
func NewCollector(quorum int) *Collector {
	return &Collector{quorum: quorum, polls: make(map[string]*poll)}
}

// Plan creates the replica tasks for a question: base describes the task
// (its ID is the poll ID); k replicas are returned ready to Submit, and the
// poll is registered for vote collection.
func (c *Collector) Plan(base taskq.Task, k int) ([]taskq.Task, error) {
	if k < 1 {
		return nil, fmt.Errorf("voting: need at least 1 replica, got %d", k)
	}
	if strings.Contains(base.ID, sep) {
		return nil, fmt.Errorf("voting: poll id %q contains reserved separator %q", base.ID, sep)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.polls[base.ID]; dup {
		return nil, fmt.Errorf("voting: duplicate poll %q", base.ID)
	}
	c.polls[base.ID] = &poll{replicas: k, votes: make(map[string]int)}
	out := make([]taskq.Task, k)
	for i := range out {
		t := base
		t.ID = ReplicaTaskID(base.ID, i)
		out[i] = t
	}
	return out, nil
}

// Vote records a worker's answer for a replica task. Late or duplicate
// deliveries are the caller's policy; the collector counts whatever it is
// given.
func (c *Collector) Vote(replicaTaskID, answer string) error {
	pollID, ok := SplitReplica(replicaTaskID)
	if !ok {
		return fmt.Errorf("%w: %q has no replica suffix", ErrUnknownReplica, replicaTaskID)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.polls[pollID]
	if !ok {
		return fmt.Errorf("%w: poll %q", ErrUnknownReplica, pollID)
	}
	p.votes[answer]++
	p.received++
	return nil
}

// Verdict resolves one poll from the votes received so far. Ties break
// lexicographically for determinism.
func (c *Collector) Verdict(pollID string) (Verdict, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.polls[pollID]
	if !ok {
		return Verdict{}, fmt.Errorf("%w: poll %q", ErrUnknownReplica, pollID)
	}
	v := Verdict{PollID: pollID, Total: p.received, Replicas: p.replicas}
	answers := make([]string, 0, len(p.votes))
	for a := range p.votes {
		answers = append(answers, a)
	}
	sort.Strings(answers)
	for _, a := range answers {
		if n := p.votes[a]; n > v.Votes {
			v.Votes = n
			v.Answer = a
		}
	}
	quorum := c.quorum
	if quorum <= 0 {
		quorum = p.replicas/2 + 1
	}
	v.Quorum = v.Votes >= quorum
	return v, nil
}

// Verdicts resolves every poll, sorted by poll ID.
func (c *Collector) Verdicts() []Verdict {
	c.mu.Lock()
	ids := make([]string, 0, len(c.polls))
	for id := range c.polls {
		ids = append(ids, id)
	}
	c.mu.Unlock()
	sort.Strings(ids)
	out := make([]Verdict, 0, len(ids))
	for _, id := range ids {
		if v, err := c.Verdict(id); err == nil {
			out = append(out, v)
		}
	}
	return out
}
