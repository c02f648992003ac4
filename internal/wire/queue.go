package wire

import "sync"

// pushSlots is the buffer of a push queue's out channel: how many items a
// read loop can leave for a consumer that is busy, or already woken but
// not yet running, without starting a pump. A read that brings a few
// frames then costs the consumer one wake-up and no other goroutine, so
// the consumer keeps its place at the front of the scheduler's queue.
// The channel is made on the queue's first push or first recv, so a
// connection pays for the slots only of the feeds its role uses: a worker
// never reads results, a requester never reads assignments.
const pushSlots = 16

// pushQueue decouples a connection's read loop from a consumer that may
// drain slowly: pushes never block (or silently drop) on a full fixed
// buffer the way the old 32-slot assignment channel did. A push that finds
// nothing queued ahead of it sends straight on out — a consumer parked
// there takes it in one goroutine hop, and otherwise it waits in one of
// out's pushSlots. Past those it appends to an accounted in-memory queue
// that a pump goroutine, started on demand and gone once the queue is
// empty, delivers in order. Depth and high-water marks (out's slots
// included) are exported through Client.Metrics so overload is visible,
// and a queue that grows past max fires onOverflow exactly once: wire
// clients close the connection there, so the server's DetachWorker path
// recovers any held task instead of the frame rotting in a buffer nobody
// reads.
type pushQueue[T any] struct {
	mu         sync.Mutex
	buf        []T
	pumping    bool // a pump is running: it may hold an item not yet delivered
	closed     bool
	overflowed bool
	highWater  int
	pushed     int64

	dead      chan struct{}  // closed on close(): stops the pump, parked or not
	pumpWG    sync.WaitGroup // the running pump, if any
	closeOnce sync.Once
	out       chan T // made on first push or recv (outLocked); guarded by mu until then

	max        int
	onOverflow func()
}

func newPushQueue[T any](max int, onOverflow func()) *pushQueue[T] {
	return &pushQueue[T]{
		dead:       make(chan struct{}),
		max:        max,
		onOverflow: onOverflow,
	}
}

// push enqueues one item; it never blocks. Items pushed after close are
// discarded (the connection is gone; the server re-pushes on reconnect).
func (q *pushQueue[T]) push(v T) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.pushed++
	out := q.outLocked()
	sent := false
	if len(q.buf) == 0 && !q.pumping {
		// Nothing is queued or in flight, so v overtakes nothing: a parked
		// consumer takes it now, or it waits in a free slot of out.
		select {
		case out <- v:
			sent = true
		default:
		}
	}
	if !sent {
		q.buf = append(q.buf, v)
	}
	d := len(out) + len(q.buf)
	if d > q.highWater {
		q.highWater = d
	}
	over := q.max > 0 && d > q.max && !q.overflowed
	if over {
		q.overflowed = true
	}
	start := !sent && !q.pumping
	if start {
		q.pumping = true
		q.pumpWG.Add(1)
	}
	q.mu.Unlock()
	if start {
		go q.pump()
	}
	if over && q.onOverflow != nil {
		q.onOverflow()
	}
}

// recv is the consumer's end of the queue: the channel items arrive on,
// closed by close.
func (q *pushQueue[T]) recv() <-chan T {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.outLocked()
}

// outLocked returns out, making it first if nothing has touched the queue
// yet. The caller holds mu.
func (q *pushQueue[T]) outLocked() chan T {
	if q.out == nil {
		q.out = make(chan T, pushSlots)
	}
	return q.out
}

// close stops the queue and waits for the pump to exit, then empties out's
// slots and closes it: once it returns nothing further is delivered,
// exactly like a closed channel — undelivered items are dropped, which is
// correct because they belonged to a dead connection. A queue nobody
// touched gets a closed channel with no slots, so a later recv still ends
// a range loop. Idempotent; every caller returns only after the pump is
// gone and out is closed.
func (q *pushQueue[T]) close() {
	q.closeOnce.Do(func() {
		q.mu.Lock()
		q.closed = true
		if q.out == nil {
			q.out = make(chan T)
		}
		q.mu.Unlock()
		close(q.dead)
		// A pump parked on a send with dead ready beside it may still hand
		// its item over (select picks at random), but only before it
		// exits, so only before close returns.
		q.pumpWG.Wait()
		// Nothing sends on out any more; a consumer receiving meanwhile
		// only takes an item before close returns.
		for len(q.out) > 0 {
			select {
			case <-q.out:
			default:
			}
		}
		close(q.out)
	})
}

// pump delivers the queue in order and exits once it is empty, or at
// close (delivery stops immediately — remaining items belonged to a dead
// connection).
func (q *pushQueue[T]) pump() {
	defer q.pumpWG.Done()
	for {
		q.mu.Lock()
		if q.closed || len(q.buf) == 0 {
			q.pumping = false
			q.mu.Unlock()
			return
		}
		v := q.buf[0]
		q.buf = q.buf[1:]
		if len(q.buf) == 0 {
			q.buf = nil // release the drained backing array
		}
		q.mu.Unlock()
		select {
		case q.out <- v:
		case <-q.dead:
			return
		}
	}
}

// depthStats snapshots the queue accounting for Client.Metrics.
func (q *pushQueue[T]) depthStats() (depth, highWater int, pushed int64, overflowed bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.out) + len(q.buf), q.highWater, q.pushed, q.overflowed
}
