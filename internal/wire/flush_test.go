package wire

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"react/internal/engine"
)

// memConn is a net.Conn sink for coalescer tests: Write appends to an
// in-memory buffer so a test can compare the exact byte stream a peer
// would have observed.
type memConn struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	writes int
	closed bool
}

func (c *memConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, errors.New("memConn: closed")
	}
	c.writes++
	return c.buf.Write(p)
}

func (c *memConn) snapshot() (string, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.String(), c.writes
}

func (c *memConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}

func (c *memConn) Read([]byte) (int, error)           { return 0, errors.New("memConn: not readable") }
func (c *memConn) LocalAddr() net.Addr                { return nil }
func (c *memConn) RemoteAddr() net.Addr               { return nil }
func (c *memConn) SetDeadline(time.Time) error        { return nil }
func (c *memConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(t time.Time) error { return nil }

// TestConnWriterCloseFlushesInOrder is the no-frame-left-behind gate:
// frames enqueued through both the async and inline paths must reach the
// peer exactly once, in enqueue order, with close() draining whatever the
// flusher had not written yet — the byte stream equals what the
// pre-coalescing synchronous writer produced.
func TestConnWriterCloseFlushesInOrder(t *testing.T) {
	nc := &memConn{}
	w := newConnWriter(nc, writerConfig{})
	var want bytes.Buffer
	for i := 0; i < 200; i++ {
		frame := []byte(fmt.Sprintf(`{"type":"event","seq":%d}`+"\n", i))
		want.Write(frame)
		if err := w.enqueue(frame, i%3 == 0); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	w.close()
	got, writes := nc.snapshot()
	if got != want.String() {
		t.Fatalf("byte stream diverged from synchronous order:\n got %d bytes\nwant %d bytes", len(got), want.Len())
	}
	if writes >= 200 {
		t.Errorf("no coalescing happened: %d writes for 200 frames", writes)
	}
	if err := w.enqueue([]byte("late\n"), false); !errors.Is(err, ErrClosed) {
		t.Errorf("enqueue after close = %v, want ErrClosed", err)
	}
}

// TestConnWriterOverflow wedges the peer (nobody reads the pipe) and
// checks the MaxPending backstop: the enqueue that crosses the bound gets
// the overflow error, the socket is closed to wake the read side, and the
// error is sticky.
func TestConnWriterOverflow(t *testing.T) {
	ours, theirs := net.Pipe() // unread: the first flush write blocks forever
	defer theirs.Close()
	w := newConnWriter(ours, writerConfig{MaxPending: 256, WriteTimeout: time.Hour})
	defer w.close()
	frame := bytes.Repeat([]byte{'x'}, 64)
	var overflowed error
	for i := 0; i < 64 && overflowed == nil; i++ {
		overflowed = w.enqueue(frame, false)
	}
	if !errors.Is(overflowed, errWriterOverflow) {
		t.Fatalf("backlog never overflowed: %v", overflowed)
	}
	if err := w.enqueue(frame, false); !errors.Is(err, errWriterOverflow) {
		t.Errorf("overflow error not sticky: %v", err)
	}
	// The socket was closed, so the peer's (blocked) read side wakes.
	theirs.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 4096)
	for {
		if _, err := theirs.Read(buf); err != nil {
			break // closed pipe surfaces here; a deadline error would fail below
		}
	}
	if _, err := ours.Write([]byte("x")); err == nil {
		t.Error("socket still writable after overflow teardown")
	}
}

// TestConnWriterWriteErrorSticky forces a write failure and checks every
// later enqueue reports it rather than silently dropping frames.
func TestConnWriterWriteErrorSticky(t *testing.T) {
	nc := &memConn{}
	nc.Close() // every Write fails from the start
	w := newConnWriter(nc, writerConfig{})
	defer w.close()
	var got error
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if got = w.enqueue([]byte("f\n"), true); got != nil {
			break
		}
	}
	if got == nil {
		t.Fatal("write failures never surfaced to enqueue")
	}
}

// deadlineConn is a memConn that records what the writer arms: every
// SetWriteDeadline, and at every Write how far away the armed deadline is.
type deadlineConn struct {
	memConn
	armed  time.Time
	arms   int
	leftAt []time.Duration // armed deadline minus now, per Write
}

func (c *deadlineConn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.armed = t
	c.arms++
	return nil
}

func (c *deadlineConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.leftAt = append(c.leftAt, time.Until(c.armed))
	c.mu.Unlock()
	return c.memConn.Write(p)
}

// TestConnWriterDeadlineWindow pins the lazy re-arm: a write never starts
// with its deadline further away than the timeout asked for (no write
// outlives WriteTimeout; close's shorter final flush pulls a long deadline
// in) nor nearer than half of it, and a run of writes inside that window
// shares one SetWriteDeadline.
func TestConnWriterDeadlineWindow(t *testing.T) {
	const timeout = 200 * time.Millisecond
	nc := &deadlineConn{}
	w := newConnWriter(nc, writerConfig{WriteTimeout: timeout})
	// Inline writes spread over more than a timeout, so the deadline has to
	// move at least twice, and bursts in between, so it must not move always.
	bursts := 0
	for begin := time.Now(); time.Since(begin) < timeout+timeout/2; time.Sleep(5 * time.Millisecond) {
		bursts++
		for i := 0; i < 4; i++ {
			if err := w.enqueue([]byte("f\n"), true); err != nil {
				t.Fatal(err)
			}
		}
	}
	w.close()
	nc.mu.Lock()
	arms, leftAt := nc.arms, nc.leftAt
	nc.mu.Unlock()
	const slack = 50 * time.Millisecond // between flush's clock reading and Write's, on a loaded box
	for i, left := range leftAt {
		if left > timeout || left < timeout/2-slack {
			t.Errorf("write %d started %v before its deadline, want within [%v, %v]", i, left, timeout/2, timeout)
		}
	}
	if arms < 2 || arms > bursts {
		t.Errorf("%d SetWriteDeadline calls for %d writes in %d bursts over 1.5 timeouts, want at least 2 and at most one a burst",
			arms, len(leftAt), bursts)
	}

	// A deadline armed for a long timeout is pulled in by a shorter one:
	// the flush-on-close of a connection whose WriteTimeout is an hour.
	nc = &deadlineConn{}
	w = newConnWriter(nc, writerConfig{WriteTimeout: time.Hour})
	defer w.close()
	if err := w.enqueue([]byte("f\n"), true); err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	w.pending, w.frames = append(w.pending, "g\n"...), 1
	w.mu.Unlock()
	if err := w.flush(closeFlushTimeout); err != nil {
		t.Fatal(err)
	}
	nc.mu.Lock()
	defer nc.mu.Unlock()
	if len(nc.leftAt) != 2 || nc.leftAt[0] < time.Hour/2 || nc.leftAt[1] > closeFlushTimeout {
		t.Errorf("deadline distances at the two writes = %v, want about an hour then at most %v", nc.leftAt, closeFlushTimeout)
	}
}

// TestBroadcastStormRace floods 1024 watcher connections through the real
// transport (over an idle region) and coalescing writers; under -race it is the concurrency gate
// for the broadcast fan-out path (encode-once frame sharing, per-conn
// flushers, inline replies racing pushes). Every watcher must see every
// frame — coalescing may merge writes, never drop or reorder them.
func TestBroadcastStormRace(t *testing.T) {
	watchers, results := 1024, 30
	if testing.Short() {
		watchers = 64
	}
	s, err := Serve("127.0.0.1:0", engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var wg sync.WaitGroup
	for i := 0; i < watchers; i++ {
		cl := dial(t, s)
		if err := cl.Watch(); err != nil {
			t.Fatalf("watch %d: %v", i, err)
		}
		wg.Add(1)
		go func(i int, cl *Client) {
			defer wg.Done()
			for seen := 0; seen < results; seen++ {
				select {
				case res, ok := <-cl.Results():
					if !ok {
						t.Errorf("watcher %d feed closed after %d/%d frames", i, seen, results)
						return
					}
					if want := fmt.Sprintf("t%04d", seen); res.TaskID != want {
						t.Errorf("watcher %d frame %d: got %q, want %q (reordered or dropped)", i, seen, res.TaskID, want)
						return
					}
				case <-time.After(60 * time.Second):
					t.Errorf("watcher %d stalled at %d/%d frames", i, seen, results)
					return
				}
			}
		}(i, cl)
	}
	for i := 0; i < results; i++ {
		s.broadcast(Message{Type: "result", Result: &ResultPayload{TaskID: fmt.Sprintf("t%04d", i), WorkerID: "w", Answer: "y", MetDeadline: true}})
	}
	wg.Wait()
}
