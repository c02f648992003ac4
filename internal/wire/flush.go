package wire

import (
	"errors"
	"net"
	"sync"
	"time"
)

// This file is the write-coalescing half of the wire hot path: every
// connection owns a connWriter whose flusher goroutine writes queued
// frames eagerly, swapping the whole pending buffer out under a mutex and
// writing it with one syscall (flush-on-close, sticky error). A broadcast
// of E events to C connections therefore costs O(C) syscalls per flush
// round instead of O(C×E): while one write syscall is in flight, every
// frame queued behind it coalesces into the next. It shares no logic with
// the journal's group committer (internal/journal/store.go), which lingers
// on an interval and a byte threshold because each of its flushes pays an
// fsync; a socket write has no such cost to amortize, so there is no
// linger here and nothing to extract between the two.
//
// Request/reply traffic takes the inline path instead: enqueue(frame,
// true) writes synchronously on the caller's goroutine when no writer is
// active, so a lone RPC pays zero scheduler handoffs — identical latency
// to the pre-coalescing synchronous write — while concurrent writers
// still coalesce through the same swap-and-write critical section.

const (
	// defaultMaxPending bounds one connection's unflushed backlog. A peer
	// that stops reading for long enough to pin this much memory is torn
	// down (the server's detach path recovers any held task), mirroring
	// the client-side pushQueue overflow rule.
	defaultMaxPending = 64 << 20

	// defaultWriteTimeout bounds one flush syscall, like the old
	// per-frame write deadline did; a write is given at least half of it
	// (see flush).
	defaultWriteTimeout = 10 * time.Second

	// closeFlushTimeout bounds the final flush-on-close write, so tearing
	// down a wedged peer cannot stall teardown for the full write timeout.
	closeFlushTimeout = 2 * time.Second
)

// writerConfig holds one connection's coalescer bounds; client and server
// both run the zero value (the defaults above). The flusher runs as soon
// as any frame is pending, so an idle connection's reply is written
// immediately and batching emerges only while a write is already in
// flight. MaxPending and WriteTimeout are seams for the overflow and
// sticky-error tests.
type writerConfig struct {
	MaxPending   int
	WriteTimeout time.Duration
	// OnFlush, if set, observes every completed flush (frame count, byte
	// count, syscall latency). Called from the flushing goroutine.
	OnFlush func(frames, bytes int, elapsed time.Duration)
}

func (cfg writerConfig) normalize() writerConfig {
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = defaultMaxPending
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = defaultWriteTimeout
	}
	return cfg
}

// errWriterOverflow is the sticky error recorded when a connection's
// pending backlog passes MaxPending.
var errWriterOverflow = errors.New("wire: write backlog overflow")

// connWriter coalesces outbound frames for one connection. enqueue is
// memory-only and safe from any goroutine; a single flusher goroutine
// performs every write syscall. Frames flush in enqueue order, exactly
// once; close flushes whatever is pending before returning, so the byte
// stream a peer observes is identical to the pre-coalescing synchronous
// one.
type connWriter struct {
	nc  net.Conn
	cfg writerConfig

	mu      sync.Mutex
	cond    *sync.Cond // signals writing -> false
	pending []byte     // frames queued since the last swap
	frames  int        // frame count in pending
	spare   []byte     // recycled swap buffer
	writing bool       // a flush's write syscall is in flight
	err     error      // sticky: first write failure or overflow
	closed  bool

	// deadline is the write deadline armed on nc. Only the active writer
	// (writing == true) reads or moves it.
	deadline time.Time

	kick chan struct{}
	done chan struct{}
	wg   sync.WaitGroup
}

func newConnWriter(nc net.Conn, cfg writerConfig) *connWriter {
	w := &connWriter{
		nc:   nc,
		cfg:  cfg.normalize(),
		kick: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	w.cond = sync.NewCond(&w.mu)
	w.wg.Add(1)
	go w.run()
	return w
}

// enqueue appends one encoded frame to the pending buffer. The frame
// bytes are copied, so pooled encode buffers can be released immediately.
// Returns the sticky error once the writer has failed or closed — callers
// treat that like the old synchronous write error (the socket is already
// being torn down).
//
// With inline=false enqueue is memory-only and never blocks: the flusher
// goroutine performs the write. With inline=true the caller flushes
// synchronously before returning — the right shape for request/reply
// frames, where the enqueueing goroutine is about to wait for the peer
// anyway and a scheduler handoff would only add latency.
func (w *connWriter) enqueue(frame []byte, inline bool) error {
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	w.pending = append(w.pending, frame...)
	w.frames++
	over := len(w.pending) > w.cfg.MaxPending
	if over {
		w.err = errWriterOverflow
	}
	w.mu.Unlock()
	if over {
		// The peer has not read for long enough to pin MaxPending bytes;
		// closing the socket wakes its read loop, and teardown recovers
		// any held task. Mirrors the client pushQueue overflow rule.
		w.nc.Close()
		return errWriterOverflow
	}
	if inline {
		return w.flush(w.cfg.WriteTimeout)
	}
	select {
	case w.kick <- struct{}{}:
	default:
	}
	return nil
}

// run is the flusher loop: park until a frame is pending, then write.
// One flush carries everything that accumulated while the previous write
// syscall was in flight; a kick that finds the buffer already drained (an
// inline enqueuer got there first) flushes nothing.
func (w *connWriter) run() {
	defer w.wg.Done()
	for {
		select {
		case <-w.done:
			// Drain what close() left pending, with a short deadline so
			// a wedged peer cannot stall teardown.
			w.flush(closeFlushTimeout)
			return
		case <-w.kick:
		}
		if w.flush(w.cfg.WriteTimeout) != nil {
			return // sticky error recorded; the socket is closed
		}
	}
}

// flush swaps the pending buffer out under the mutex and writes it with a
// single syscall. Both the flusher goroutine and inline enqueuers call
// it; the writing flag makes exactly one of them the active writer while
// the rest wait their turn (by which point their frames have usually been
// carried out by the active writer's swap, and their own flush is empty).
func (w *connWriter) flush(timeout time.Duration) error {
	w.mu.Lock()
	for w.writing {
		// cond.Wait releases the mutex; the active writer's syscall is
		// bounded by its write deadline, so the wait is too.
		w.cond.Wait()
	}
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	buf, frames := w.pending, w.frames
	if len(buf) == 0 {
		w.mu.Unlock()
		return nil
	}
	w.pending, w.frames = w.spare[:0], 0
	w.spare = nil
	w.writing = true
	w.mu.Unlock()
	// One clock reading per write, and a deadline re-armed only when it has
	// drifted: nearer than half the timeout asked for, or further than all of
	// it (close's shorter final flush). Every write still gets between half
	// a timeout and a whole one, and SetWriteDeadline leaves the hot path.
	start := time.Now()
	if left := w.deadline.Sub(start); left < timeout/2 || left > timeout {
		w.deadline = start.Add(timeout)
		w.nc.SetWriteDeadline(w.deadline)
	}
	//lint:ignore blockingunderlock an inline flush runs on the caller's goroutine, which may hold Client.reqMu — the one-in-flight-call design; the write deadline above bounds the hold
	_, err := w.nc.Write(buf)
	var elapsed time.Duration
	if w.cfg.OnFlush != nil {
		elapsed = time.Since(start)
	}
	w.mu.Lock()
	w.writing = false
	w.cond.Broadcast()
	if err != nil {
		if w.err == nil {
			w.err = err // sticky: every later enqueue returns this
		}
		err = w.err
		w.mu.Unlock()
		// Closing the socket wakes the connection's read loop so normal
		// teardown runs.
		w.nc.Close()
		return err
	}
	if w.spare == nil && cap(buf) <= maxPooledFrame*4 {
		w.spare = buf[:0] // recycle; oversized storm buffers are let go
	}
	w.mu.Unlock()
	if w.cfg.OnFlush != nil {
		w.cfg.OnFlush(frames, len(buf), elapsed)
	}
	return nil
}

// close stops the flusher after one final flush of everything enqueued
// before the call, then returns. It does not close the socket — callers
// own that — so a graceful teardown can flush, then close, and lose
// nothing. Idempotent.
func (w *connWriter) close() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	w.mu.Unlock()
	close(w.done)
	w.wg.Wait()
}
