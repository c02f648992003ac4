package wire

import (
	"runtime"
	"testing"
	"time"
)

// TestPushQueueDeliversInOrder pins the basic contract: everything pushed
// is delivered, in push order, and the accounting sees it.
func TestPushQueueDeliversInOrder(t *testing.T) {
	q := newPushQueue[int](0, nil)
	const n = 100
	for i := 0; i < n; i++ {
		q.push(i)
	}
	for i := 0; i < n; i++ {
		select {
		case v := <-q.out:
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
		case v, ok := <-q.out:
			if ok {
				t.Fatalf("iteration %d: received %d after close()", i, v)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("iteration %d: out never closed", i)
		}
	}
}

// TestPushQueueCloseIdempotent pins that double close is safe and that
// pushes after close are discarded without waking anything.
func TestPushQueueCloseIdempotent(t *testing.T) {
	q := newPushQueue[int](0, nil)
	q.close()
	q.close()
	q.push(7)
	if _, ok := <-q.out; ok {
		t.Fatal("received an item pushed after close")
	}
	if depth, _, _, _ := q.depthStats(); depth != 0 {
		t.Fatalf("push after close buffered an item (depth %d)", depth)
	}
}
