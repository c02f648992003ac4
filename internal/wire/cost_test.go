package wire

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"react/internal/engine"
)

// liveCost reads the goroutine count and the bytes held in heap objects
// and goroutine stacks, after two collections so finalizers and freed
// spans have settled.
func liveCost() (goroutines int, heap, stack uint64) {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtime.NumGoroutine(), ms.HeapAlloc, ms.StackInuse
}

// TestIdleConnectionCost pins what an idle registered worker costs across
// both ends of its connection: 256 workers register over loopback and then
// sit idle, and each client/server pair may hold at most 2 goroutines (the
// two read loops), 10 KiB of heap and 24 KiB of heap plus stack. The heap
// bound holds only while a connection keeps just what its role uses: two
// 512-byte read buffers, one response slot, and no push channel for a
// feed nobody reads. Closing the clients and the server must then end
// every goroutine either side started.
func TestIdleConnectionCost(t *testing.T) {
	const (
		workers     = 256
		maxRoutines = 2
		maxHeap     = 10 << 10
		maxBytes    = 24 << 10
	)
	before, _, _ := liveCost()
	s, err := Serve("127.0.0.1:0", engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g0, h0, st0 := liveCost()

	clients := make([]*Client, 0, workers)
	defer func() {
		for _, cl := range clients {
			cl.Close()
		}
	}()
	for i := 0; i < workers; i++ {
		cl, err := Dial(s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, cl)
		if err := cl.Register(fmt.Sprintf("idle%03d", i), 37.98, 23.73); err != nil {
			t.Fatal(err)
		}
	}
	// Replies are written inline and nothing is pushed, so no drain or
	// pump is running: what is left is what an idle worker costs.
	g1, h1, st1 := liveCost()
	routines := float64(g1-g0) / workers
	heap := (float64(h1) - float64(h0)) / workers
	stack := (float64(st1) - float64(st0)) / workers
	t.Logf("per idle worker: %.2f goroutines, %.1f KiB heap, %.1f KiB stack", routines, heap/1024, stack/1024)
	if routines > maxRoutines {
		t.Errorf("%.2f goroutines per idle connection pair, want at most %d", routines, maxRoutines)
	}
	if heap > maxHeap {
		t.Errorf("%.1f KiB of heap per idle connection pair, want at most %d KiB", heap/1024, maxHeap>>10)
	}
	if heap+stack > maxBytes {
		t.Errorf("%.1f KiB of heap plus stack per idle connection pair, want at most %d KiB", (heap+stack)/1024, maxBytes>>10)
	}

	for _, cl := range clients {
		cl.Close()
	}
	clients = nil
	s.Close()
	deadline := time.Now().Add(time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines 1s after closing everything, %d before the server started:\n%s",
				n, before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// BenchmarkDialRegister is the setup cost of one worker connection: dial,
// register and close over loopback. B/op and allocs/op count both ends.
func BenchmarkDialRegister(b *testing.B) {
	s, err := Serve("127.0.0.1:0", engine.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl, err := Dial(s.Addr())
		if err != nil {
			b.Fatal(err)
		}
		if err := cl.Register(fmt.Sprintf("w%d", i), 37.98, 23.73); err != nil {
			b.Fatal(err)
		}
		cl.Close()
	}
}

// BenchmarkPushHandoff is one push received by a consumer already parked
// on the queue, then acknowledged back: the path an assignment takes from
// a client's read loop to a worker waiting on Assignments().
func BenchmarkPushHandoff(b *testing.B) {
	q := newPushQueue[int](0, nil)
	defer q.close()
	ack := make(chan struct{})
	out := q.recv()
	go func() {
		for range out {
			ack <- struct{}{}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.push(i)
		<-ack
	}
}
