package wire

import (
	"errors"
	"net"
	"sync"
	"time"
)

// This file is the write-coalescing half of the wire hot path: every
// connection owns a connWriter that swaps the whole pending buffer out
// under a mutex and writes it with one syscall (flush-on-close, sticky
// error). A broadcast of E events to C connections therefore costs O(C)
// syscalls per flush round instead of O(C×E): while one write syscall is
// in flight, every frame queued behind it coalesces into the next. It
// shares no logic with the journal's group committer
// (internal/journal/store.go), which lingers on an interval and a byte
// threshold because each of its flushes pays an fsync; a socket write has
// no such cost to amortize, so there is no linger here and nothing to
// extract between the two.
//
// Request/reply traffic takes the inline path: enqueue(frame, true)
// writes synchronously on the caller's goroutine, so a lone RPC pays zero
// scheduler handoffs, while concurrent writers still coalesce through the
// same swap-and-write critical section. Pushes (enqueue(frame, false))
// never write on the caller's goroutine: the first one that finds no
// drain running starts one, and the drain exits once nothing is pending.
// An idle connection therefore keeps no writer goroutine at all.

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
// both run the zero value (the defaults above). A drain starts as soon as
// a push is pending, so an idle connection's push is written immediately
// and batching emerges only while a write is already in flight.
// MaxPending and WriteTimeout are seams for the overflow and sticky-error
// tests.
type writerConfig struct {
	MaxPending   int
	WriteTimeout time.Duration
	// OnFlush, if set, observes every completed flush (frame count, byte
	// count, syscall latency). Called on the goroutine that flushed.
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
// safe from any goroutine; whoever flushes — an inline enqueuer, a drain,
// close — performs the write syscall, one at a time. Frames flush in
// enqueue order, exactly once; close flushes whatever is pending before
// returning, so the byte stream a peer observes is identical to the
// pre-coalescing synchronous one.
type connWriter struct {
	nc  net.Conn
	cfg writerConfig

	mu       sync.Mutex
	cond     *sync.Cond // signals writing -> false and draining -> false
	pending  []byte     // frames queued since the last swap
	frames   int        // frame count in pending
	spare    []byte     // recycled swap buffer
	writing  bool       // a flush's write syscall is in flight
	draining bool       // a drain goroutine is running
	err      error      // sticky: first write failure or overflow
	closed   bool

	// deadline is the write deadline armed on nc. Only the active writer
	// (writing == true) reads or moves it.
	deadline time.Time
}

func newConnWriter(nc net.Conn, cfg writerConfig) *connWriter {
	w := &connWriter{nc: nc, cfg: cfg.normalize()}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// enqueue appends one encoded frame to the pending buffer. The frame
// bytes are copied, so pooled encode buffers can be released immediately.
// Returns the sticky error once the writer has failed or closed — callers
// treat that like the old synchronous write error (the socket is already
// being torn down).
//
// With inline=false enqueue never blocks and never writes: a drain
// goroutine performs the write, started here if none is running. With
// inline=true the caller flushes synchronously before returning — the
// right shape for request/reply frames, where the enqueueing goroutine is
// about to wait for the peer anyway and a scheduler handoff would only add
// latency.
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
	start := !inline && !over && !w.draining
	if start {
		w.draining = true
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
	if start {
		go w.drain()
	}
	return nil
}

// drain flushes until nothing is pending, then exits. One flush carries
// everything that accumulated while the previous write syscall was in
// flight; a flush that finds the buffer already carried out (an inline
// enqueuer got there first) writes nothing. Once close has begun, drain
// leaves what remains to close's bounded final flush.
func (w *connWriter) drain() {
	for {
		err := w.flush(w.cfg.WriteTimeout)
		w.mu.Lock()
		if err != nil || len(w.pending) == 0 || w.closed {
			w.draining = false
			w.cond.Broadcast()
			w.mu.Unlock()
			return
		}
		w.mu.Unlock()
	}
}

// flush swaps the pending buffer out under the mutex and writes it with a
// single syscall. Drains, inline enqueuers and close all call it; the
// writing flag makes exactly one of them the active writer while the rest
// wait their turn (by which point their frames have usually been carried
// out by the active writer's swap, and their own flush is empty).
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

// close waits for a running drain, then flushes everything enqueued
// before the call with a short deadline, so a wedged peer cannot stall
// teardown. It does not close the socket — callers own that — so a
// graceful teardown can flush, then close, and lose nothing. Idempotent.
func (w *connWriter) close() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	for w.draining {
		// cond.Wait releases the mutex; the drain's write is bounded by
		// its write deadline, and it stops once it sees closed.
		w.cond.Wait()
	}
	w.mu.Unlock()
	w.flush(closeFlushTimeout)
}
