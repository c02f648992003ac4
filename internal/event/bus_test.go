package event

import (
	"sync"
	"testing"
	"time"

	"react/internal/taskq"
)

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		KindSubmit:     "submit",
		KindAssign:     "assign",
		KindRevoke:     "revoke",
		KindComplete:   "complete",
		KindExpire:     "expire",
		KindForget:     "forget",
		KindFeedback:   "feedback",
		KindAttach:     "attach",
		KindDeregister: "deregister",
		KindBatch:      "batch",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
	if Kind(0).String() != "kind(0)" {
		t.Errorf("zero kind = %q", Kind(0).String())
	}
	// The journal writes these numbers to disk.
	if KindFeedback != 7 || KindAttach != 8 || KindDeregister != 9 || KindBatch != 10 {
		t.Errorf("kind numbers moved: feedback %d attach %d deregister %d batch %d",
			KindFeedback, KindAttach, KindDeregister, KindBatch)
	}
	for k := KindSubmit; k <= KindForget; k++ {
		if !k.Lifecycle() {
			t.Errorf("%v should be lifecycle", k)
		}
	}
	for _, k := range []Kind{KindFeedback, KindAttach, KindDeregister, KindBatch} {
		if k.Lifecycle() {
			t.Errorf("%v is not lifecycle", k)
		}
	}
	for _, k := range []Kind{KindComplete, KindExpire, KindForget} {
		if !k.Terminal() {
			t.Errorf("%v should be terminal", k)
		}
	}
	for _, k := range []Kind{KindSubmit, KindAssign, KindRevoke, KindFeedback, KindAttach, KindDeregister, KindBatch} {
		if k.Terminal() {
			t.Errorf("%v should not be terminal", k)
		}
	}
}

func TestFromTaskMapsEveryKind(t *testing.T) {
	rec := taskq.Record{Task: taskq.Task{ID: "t1"}, Attempts: 2}
	at := time.Unix(100, 0)
	pairs := map[taskq.EventKind]Kind{
		taskq.EvSubmit:   KindSubmit,
		taskq.EvAssign:   KindAssign,
		taskq.EvUnassign: KindRevoke,
		taskq.EvComplete: KindComplete,
		taskq.EvExpire:   KindExpire,
		taskq.EvForget:   KindForget,
	}
	for tk, ek := range pairs {
		ev := FromTask(taskq.Event{
			Kind: tk, Record: rec, At: at,
			Worker: "w1", Cause: taskq.CauseEq2, Prob: 0.3,
		})
		if ev.Kind != ek || ev.Task != "t1" || ev.Worker != "w1" ||
			!ev.At.Equal(at) || ev.Cause != taskq.CauseEq2 || ev.Prob != 0.3 {
			t.Errorf("FromTask(%v) = %+v", tk, ev)
		}
		if ev.Seq != 0 {
			t.Errorf("FromTask must leave Seq for Publish, got %d", ev.Seq)
		}
		if ev.Record.Attempts != 2 {
			t.Errorf("record not carried: %+v", ev.Record)
		}
	}
}

func TestTapSeesEveryEventInOrder(t *testing.T) {
	b := NewBus()
	var got []uint64
	b.Tap(func(ev Event) { got = append(got, ev.Seq) })
	for i := 0; i < 5; i++ {
		b.Publish(Event{Kind: KindSubmit, Task: "t"})
	}
	if len(got) != 5 {
		t.Fatalf("tap saw %d events, want 5", len(got))
	}
	for i, seq := range got {
		if seq != uint64(i+1) {
			t.Fatalf("seq[%d] = %d, want %d", i, seq, i+1)
		}
	}
	if st := b.Stats(); st.Published != 5 || st.Taps != 1 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPublishReturnsStampedEvent(t *testing.T) {
	b := NewBus()
	first := b.Publish(Event{Kind: KindSubmit})
	second := b.Publish(Event{Kind: KindAssign})
	if first.Seq != 1 || second.Seq != 2 {
		t.Fatalf("seqs = %d, %d", first.Seq, second.Seq)
	}
}

func TestSubscribeFilterSkipsWithoutDropCounting(t *testing.T) {
	b := NewBus()
	sub := b.Subscribe(8, func(ev Event) bool { return ev.Task == "keep" })
	defer sub.Close()
	b.Publish(Event{Kind: KindSubmit, Task: "keep"})
	b.Publish(Event{Kind: KindSubmit, Task: "skip"})
	b.Publish(Event{Kind: KindComplete, Task: "keep"})

	if ev := <-sub.C(); ev.Kind != KindSubmit || ev.Seq != 1 {
		t.Fatalf("first = %+v", ev)
	}
	if ev := <-sub.C(); ev.Kind != KindComplete || ev.Seq != 3 {
		t.Fatalf("second = %+v", ev)
	}
	if sub.Dropped() != 0 {
		t.Fatalf("filtered events counted as drops: %d", sub.Dropped())
	}
	if st := b.Stats(); st.Dropped != 0 || st.Subscribers != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSubscriptionOverflowDropsAndCounts(t *testing.T) {
	b := NewBus()
	sub := b.Subscribe(2, nil)
	defer sub.Close()
	for i := 0; i < 7; i++ {
		b.Publish(Event{Kind: KindSubmit, Task: "t"})
	}
	// Buffer depth 2: the first two landed, five overflowed.
	if d := sub.Dropped(); d != 5 {
		t.Fatalf("sub dropped %d, want 5", d)
	}
	if st := b.Stats(); st.Dropped != 5 || st.Published != 7 {
		t.Fatalf("stats = %+v", st)
	}
	// The retained events are the earliest ones, in order.
	if ev := <-sub.C(); ev.Seq != 1 {
		t.Fatalf("first retained seq = %d", ev.Seq)
	}
	if ev := <-sub.C(); ev.Seq != 2 {
		t.Fatalf("second retained seq = %d", ev.Seq)
	}
}

func TestMinimumBufferIsOne(t *testing.T) {
	b := NewBus()
	sub := b.Subscribe(0, nil)
	defer sub.Close()
	b.Publish(Event{Kind: KindSubmit})
	b.Publish(Event{Kind: KindSubmit})
	if d := sub.Dropped(); d != 1 {
		t.Fatalf("dropped %d, want 1 (buffer clamped to 1)", d)
	}
}

func TestCloseIsIdempotentAndDetaches(t *testing.T) {
	b := NewBus()
	sub := b.Subscribe(1, nil)
	sub.Close()
	sub.Close() // second close must not panic
	if _, ok := <-sub.C(); ok {
		t.Fatal("channel should be closed")
	}
	if st := b.Stats(); st.Subscribers != 0 {
		t.Fatalf("subscriber leaked: %+v", st)
	}
	// Publishing after close must not panic or count drops.
	b.Publish(Event{Kind: KindSubmit})
	if sub.Dropped() != 0 {
		t.Fatal("closed subscription counted a drop")
	}
}

func TestCloseRacesPublishSafely(t *testing.T) {
	b := NewBus()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				b.Publish(Event{Kind: KindSubmit, Task: "t"})
			}
		}
	}()
	for i := 0; i < 200; i++ {
		sub := b.Subscribe(1, nil)
		// Drain concurrently so offers interleave with the close.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range sub.C() {
			}
		}()
		sub.Close()
	}
	close(stop)
	wg.Wait()
	if st := b.Stats(); st.Subscribers != 0 {
		t.Fatalf("subscribers leaked: %+v", st)
	}
}

func TestConcurrentPublishersStampUniqueSeqs(t *testing.T) {
	b := NewBus()
	const goroutines, per = 8, 500
	var mu sync.Mutex
	seen := make(map[uint64]bool, goroutines*per)
	b.Tap(func(ev Event) {
		// Taps run inside Publish concurrently across publishers; the
		// test's own mutex stands in for a consumer's synchronization.
		mu.Lock()
		if seen[ev.Seq] {
			t.Errorf("duplicate seq %d", ev.Seq)
		}
		seen[ev.Seq] = true
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				b.Publish(Event{Kind: KindSubmit})
			}
		}()
	}
	wg.Wait()
	if len(seen) != goroutines*per {
		t.Fatalf("saw %d unique seqs, want %d", len(seen), goroutines*per)
	}
	if st := b.Stats(); st.Published != goroutines*per {
		t.Fatalf("stats = %+v", st)
	}
}
