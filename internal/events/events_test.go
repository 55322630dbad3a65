package events

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// collect drains the subscription until its channel closes or the
// timeout elapses, returning what arrived.
func collect(t *testing.T, sub *Subscription, timeout time.Duration) []Event {
	t.Helper()
	var got []Event
	deadline := time.After(timeout)
	for {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				return got
			}
			got = append(got, ev)
		case <-deadline:
			return got
		}
	}
}

func TestPublishSubscribeLifecycle(t *testing.T) {
	b := NewBus(0)
	st := b.NewStream("j1")
	sub := st.Subscribe(0, 16)
	defer sub.Cancel()

	st.Publish("queued", nil)
	st.Publish("attempt", map[string]string{"attempt": "1"})
	st.Publish("stage", map[string]string{"stage": "prepare"})
	st.Publish("done", nil)
	st.Close()

	got := collect(t, sub, 2*time.Second)
	want := []string{"queued", "attempt", "stage", "done"}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d: %+v", len(got), len(want), got)
	}
	for i, ev := range got {
		if ev.Type != want[i] {
			t.Errorf("event %d type = %q, want %q", i, ev.Type, want[i])
		}
		if ev.Seq != int64(i+1) {
			t.Errorf("event %d seq = %d, want %d", i, ev.Seq, i+1)
		}
		if ev.JobID != "j1" {
			t.Errorf("event %d job = %q", i, ev.JobID)
		}
	}
	if got[1].Data["attempt"] != "1" {
		t.Errorf("attempt data lost: %+v", got[1].Data)
	}
	if b.Published() != 4 {
		t.Errorf("Published = %d, want 4", b.Published())
	}
}

// A subscriber attaching after the job finished replays the recorded
// history and then sees a closed channel (no hang, no polling).
func TestLateSubscriberReplaysClosedStream(t *testing.T) {
	b := NewBus(0)
	st := b.NewStream("j1")
	st.Publish("queued", nil)
	st.Publish("done", nil)
	st.Close()

	sub := st.Subscribe(0, 8)
	got := collect(t, sub, 2*time.Second)
	if len(got) != 2 || got[0].Type != "queued" || got[1].Type != "done" {
		t.Fatalf("late replay = %+v", got)
	}
	// Publishing to a closed stream stays a no-op.
	if ev := st.Publish("ghost", nil); ev.Seq != 0 {
		t.Errorf("publish after close returned %+v", ev)
	}
	sub.Cancel() // idempotent on a closed subscription
	sub.Cancel()
}

// afterSeq resumes mid-stream, the Last-Event-ID contract.
func TestResumeAfterSeq(t *testing.T) {
	b := NewBus(0)
	st := b.NewStream("j1")
	for i := 0; i < 5; i++ {
		st.Publish(fmt.Sprintf("e%d", i+1), nil)
	}
	sub := st.Subscribe(3, 8)
	defer sub.Cancel()
	st.Publish("e6", nil)
	st.Close()
	got := collect(t, sub, 2*time.Second)
	want := []string{"e4", "e5", "e6"}
	if len(got) != len(want) {
		t.Fatalf("resume got %+v, want types %v", got, want)
	}
	for i, ev := range got {
		if ev.Type != want[i] {
			t.Errorf("resume event %d = %q, want %q", i, ev.Type, want[i])
		}
	}
}

// A full subscriber buffer drops events (counted) instead of blocking
// the publisher.
func TestSlowSubscriberDropsNotBlocks(t *testing.T) {
	b := NewBus(0)
	st := b.NewStream("j1")
	sub := st.Subscribe(0, 2) // tiny buffer, never drained
	defer sub.Cancel()
	donePub := make(chan struct{})
	go func() {
		for i := 0; i < 50; i++ {
			st.Publish("tick", nil)
		}
		close(donePub)
	}()
	select {
	case <-donePub:
	case <-time.After(5 * time.Second):
		t.Fatal("publisher blocked on a slow subscriber")
	}
	if d := sub.Dropped(); d != 48 {
		t.Errorf("subscription dropped %d, want 48", d)
	}
	if d := b.Dropped(); d != 48 {
		t.Errorf("bus dropped %d, want 48", d)
	}
}

// The history ring is bounded: a very chatty job keeps only the most
// recent events for replay.
func TestHistoryRingBounded(t *testing.T) {
	b := NewBus(4)
	st := b.NewStream("j1")
	for i := 0; i < 10; i++ {
		st.Publish(fmt.Sprintf("e%d", i+1), nil)
	}
	sub := st.Subscribe(0, 16)
	defer sub.Cancel()
	st.Close()
	got := collect(t, sub, 2*time.Second)
	if len(got) != 4 {
		t.Fatalf("replayed %d events, want 4 (ring size)", len(got))
	}
	if got[0].Type != "e7" || got[3].Type != "e10" {
		t.Errorf("ring kept %q..%q, want e7..e10", got[0].Type, got[3].Type)
	}
	// Seq numbering reflects the full stream, not the ring.
	if got[3].Seq != 10 {
		t.Errorf("last seq = %d, want 10", got[3].Seq)
	}
}

// Streams are independent: one job's close does not touch another's
// subscribers.
func TestIndependentStreams(t *testing.T) {
	b := NewBus(0)
	st1, st2 := b.NewStream("j1"), b.NewStream("j2")
	s1 := st1.Subscribe(0, 8)
	s2 := st2.Subscribe(0, 8)
	defer s1.Cancel()
	defer s2.Cancel()
	st1.Publish("a", nil)
	st2.Publish("b", nil)
	st1.Close()
	if got := collect(t, s1, 2*time.Second); len(got) != 1 || got[0].Type != "a" {
		t.Errorf("j1 stream = %+v", got)
	}
	select {
	case ev := <-s2.Events():
		if ev.Type != "b" {
			t.Errorf("j2 got %+v", ev)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("j2 event never arrived")
	}
	select {
	case _, ok := <-s2.Events():
		if !ok {
			t.Error("j2 channel closed by j1's Close")
		}
	default:
	}
}

// Concurrent publishers, subscribers and cancels; run under -race.
func TestConcurrentPubSub(t *testing.T) {
	b := NewBus(0)
	streams := []*Stream{b.NewStream("j0"), b.NewStream("j1")}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			st := streams[g%2]
			for i := 0; i < 200; i++ {
				st.Publish("tick", nil)
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sub := streams[g%2].Subscribe(0, 4)
			for i := 0; i < 20; i++ {
				select {
				case <-sub.Events():
				default:
				}
			}
			sub.Cancel()
		}(g)
	}
	wg.Wait()
	for _, st := range streams {
		st.Close()
	}
	if n := b.Subscribers(); n != 0 {
		t.Errorf("subscribers after cancel/close = %d, want 0", n)
	}
}

// Per-job sequence numbers stay dense and ordered under concurrent
// publishers.
func TestSeqDenseUnderConcurrency(t *testing.T) {
	b := NewBus(1024)
	st := b.NewStream("j1")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				st.Publish("tick", nil)
			}
		}()
	}
	wg.Wait()
	sub := st.Subscribe(0, 512)
	st.Close()
	got := collect(t, sub, 5*time.Second)
	if len(got) != 400 {
		t.Fatalf("replayed %d, want 400", len(got))
	}
	for i, ev := range got {
		if ev.Seq != int64(i+1) {
			t.Fatalf("seq[%d] = %d, want %d", i, ev.Seq, i+1)
		}
	}
}
