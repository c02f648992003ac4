package wire

import (
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// TestPushQueueDeliversInOrder pins the basic contract: everything pushed
// is delivered, in push order, and the accounting sees it. The queue holds
// no channel until it is used, and every push here comes before the
// consumer's first recv.
func TestPushQueueDeliversInOrder(t *testing.T) {
	q := newPushQueue[int](0, nil)
	if q.out != nil {
		t.Fatal("a fresh queue already holds a channel")
	}
	const n = 100
	for i := 0; i < n; i++ {
		q.push(i)
	}
	for i := 0; i < n; i++ {
		select {
		case v := <-q.recv():
			if v != i {
				t.Fatalf("delivery %d: got %d", i, v)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("delivery %d never arrived", i)
		}
	}
	_, hw, pushed, overflowed := q.depthStats()
	if pushed != n || hw == 0 || overflowed {
		t.Fatalf("stats: pushed=%d highWater=%d overflowed=%v", pushed, hw, overflowed)
	}
	q.close()
}

// TestPushQueueOverflowFiresOnce pins the overflow contract: one callback,
// however far past max the queue grows.
func TestPushQueueOverflowFiresOnce(t *testing.T) {
	fired := 0
	q := newPushQueue[int](4, func() { fired++ })
	for i := 0; i < 20; i++ {
		q.push(i)
	}
	if fired != 1 {
		t.Fatalf("overflow fired %d times, want 1", fired)
	}
	q.close()
}

// TestPushQueueNothingAfterClose is the regression test for the
// close-race: the pump's delivery select — `case q.out <- v` vs
// `case <-q.dead` — picks randomly when both are ready, and a send the
// pump had already parked on could still rendezvous with a later
// consumer. Either way a receiver could get one more item after close()
// returned, violating the documented "delivers nothing further" contract.
// No check the pump makes before its select can close that window (it can
// be descheduled between the check and the select), so close() waits for
// the pump to exit — taking whatever it still offers — and the contract
// holds by construction.
//
// The race needs the pump to be holding an item when close lands, so we
// run many iterations with jittered scheduling; before the fix a few
// percent of iterations received an item here.
func TestPushQueueNothingAfterClose(t *testing.T) {
	const iterations = 500
	for i := 0; i < iterations; i++ {
		q := newPushQueue[int](0, nil)
		q.push(1)
		// Vary how far the pump gets — from "still waking up" to "parked
		// in the send" — before close lands.
		switch i % 3 {
		case 1:
			runtime.Gosched()
		case 2:
			time.Sleep(50 * time.Microsecond)
		}
		q.close()
		// close() has returned: a consumer arriving now must observe only
		// the closed channel, never the undelivered item.
		select {
		case v, ok := <-q.recv():
			if ok {
				t.Fatalf("iteration %d: received %d after close()", i, v)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("iteration %d: out never closed", i)
		}
	}
}

// TestPushQueueCloseIdempotent pins that double close is safe, that
// pushes after close are discarded without waking anything, and that a
// range over a queue closed before anything touched it ends.
func TestPushQueueCloseIdempotent(t *testing.T) {
	q := newPushQueue[int](0, nil)
	q.close()
	q.close()
	q.push(7)
	for v := range q.recv() {
		t.Fatalf("received %d, pushed after close", v)
	}
	if depth, _, _, _ := q.depthStats(); depth != 0 {
		t.Fatalf("push after close buffered an item (depth %d)", depth)
	}
}

// TestPushQueueOrderMixedPaths pushes bursts at a consumer that is
// sometimes parked (a lone push is handed straight over) and sometimes
// slow (pushes fill out's slots, then queue behind a pump): under -race,
// every item must arrive exactly once and in push order, whichever path it
// took, and both paths must have been taken.
func TestPushQueueOrderMixedPaths(t *testing.T) {
	const bursts = 200
	q := newPushQueue[int](0, nil)
	defer q.close()
	rng := rand.New(rand.NewSource(38))
	sizes := make([]int, bursts)
	slow := make([]bool, bursts)
	total := 0
	for i := range sizes {
		sizes[i] = 1 + rng.Intn(2*pushSlots)
		slow[i] = rng.Intn(3) == 0
		total += sizes[i]
	}
	acks := make(chan struct{})
	out := q.recv()
	go func() {
		next := 0
		for b, n := range sizes {
			for j := 0; j < n; j++ {
				if slow[b] && j == 0 {
					time.Sleep(100 * time.Microsecond) // let the burst queue up
				}
				v, ok := <-out
				if !ok || v != next {
					t.Errorf("delivery %d: got %d (open %v)", next, v, ok)
					close(acks)
					return
				}
				next++
			}
			acks <- struct{}{}
		}
	}()
	direct, eligible, v := 0, 0, 0
	for b, n := range sizes {
		time.Sleep(50 * time.Microsecond) // the consumer parks again
		for j := 0; j < n; j++ {
			q.push(v)
			v++
			if j == 0 && !slow[b] {
				eligible++
				q.mu.Lock()
				if !q.pumping && len(q.out) == 0 {
					direct++ // neither queued nor left in a slot: the consumer took it
				}
				q.mu.Unlock()
			}
		}
		if _, ok := <-acks; !ok {
			return
		}
	}
	_, hw, pushed, _ := q.depthStats()
	if pushed != int64(total) {
		t.Fatalf("pushed %d, want %d", pushed, total)
	}
	if direct == 0 || hw <= pushSlots {
		t.Fatalf("paths not mixed: %d direct hand-offs, backlog high water %d", direct, hw)
	}
	t.Logf("%d of %d bursts to a parked consumer opened with a direct hand-off; backlog high water %d", direct, eligible, hw)
}
