package wire

import "sync"

// pushQueue decouples a connection's read loop from a consumer that may
// drain slowly: pushes never block (or silently drop) on a full fixed
// buffer the way the old 32-slot assignment channel did — they append to
// an accounted in-memory queue that a pump goroutine delivers to a plain
// channel. Depth and high-water marks are exported through
// Client.Metrics so overload is visible, and a queue that grows past max
// fires onOverflow exactly once: wire clients close the connection there,
// so the server's DetachWorker path recovers any held task instead of
// the frame rotting in a buffer nobody reads.
type pushQueue[T any] struct {
	mu         sync.Mutex
	buf        []T
	closed     bool
	overflowed bool
	highWater  int
	pushed     int64

	wake chan struct{} // 1-buffered pump doorbell
	dead chan struct{} // closed on close(): stops the pump, parked or not
	out  chan T

	max        int
	onOverflow func()
}

func newPushQueue[T any](max int, onOverflow func()) *pushQueue[T] {
	q := &pushQueue[T]{
		wake:       make(chan struct{}, 1),
		dead:       make(chan struct{}),
		out:        make(chan T),
		max:        max,
		onOverflow: onOverflow,
	}
	go q.pump()
	return q
}

// push enqueues one item; it never blocks. Items pushed after close are
// discarded (the connection is gone; the server re-pushes on reconnect).
func (q *pushQueue[T]) push(v T) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.buf = append(q.buf, v)
	if len(q.buf) > q.highWater {
		q.highWater = len(q.buf)
	}
	q.pushed++
	over := q.max > 0 && len(q.buf) > q.max && !q.overflowed
	if over {
		q.overflowed = true
	}
	q.mu.Unlock()
	select {
	case q.wake <- struct{}{}:
	default:
	}
	if over && q.onOverflow != nil {
		q.onOverflow()
	}
}

// close stops the queue and waits for the pump to exit: once it returns the
// out channel is closed and nothing further is delivered, exactly like a
// closed channel — undelivered items are dropped, which is correct because
// they belonged to a dead connection. Idempotent; every caller returns only
// after the pump is gone.
func (q *pushQueue[T]) close() {
	q.mu.Lock()
	first := !q.closed
	q.closed = true
	q.mu.Unlock()
	if first {
		close(q.dead)
	}
	// The pump closes out on its way out. Until then it may be parked on a
	// send with dead ready beside it, and select picks at random: receiving
	// here takes (and drops) such an item so that no consumer arriving after
	// close() can.
	for range q.out {
	}
}

func (q *pushQueue[T]) pump() {
	defer close(q.out)
	for {
		v, ok, closed := q.pop()
		if closed {
			return
		}
		if !ok {
			select {
			case <-q.wake:
			case <-q.dead:
				return
			}
			continue
		}
		select {
		case q.out <- v:
		case <-q.dead:
			return
		}
	}
}

// pop removes the head item; ok reports an item was available, closed
// reports the queue is closed (delivery stops immediately — remaining
// items belonged to a dead connection).
func (q *pushQueue[T]) pop() (v T, ok, closed bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return v, false, true
	}
	if len(q.buf) == 0 {
		return v, false, false
	}
	v = q.buf[0]
	q.buf = q.buf[1:]
	if len(q.buf) == 0 {
		q.buf = nil // release the drained backing array
	}
	return v, true, false
}

// depthStats snapshots the queue accounting for Client.Metrics.
func (q *pushQueue[T]) depthStats() (depth, highWater int, pushed int64, overflowed bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.buf), q.highWater, q.pushed, q.overflowed
}
