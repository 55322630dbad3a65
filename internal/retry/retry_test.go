package retry

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeClock records every requested delay and fires timers instantly,
// so Do's schedule is observable without sleeping.
type fakeClock struct {
	mu     sync.Mutex
	delays []time.Duration
	block  bool // never fire; Do must fall through to ctx
}

func (c *fakeClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	c.delays = append(c.delays, d)
	block := c.block
	c.mu.Unlock()
	ch := make(chan time.Time, 1)
	if !block {
		ch <- time.Time{}
	}
	return ch
}

func (c *fakeClock) recorded() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.delays...)
}

func TestDelayGrowthAndCap(t *testing.T) {
	p := Policy{BaseDelay: 100 * time.Millisecond, MaxDelay: 1 * time.Second}
	want := []time.Duration{
		100 * time.Millisecond, // retry 1
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		1 * time.Second, // capped
		1 * time.Second,
	}
	for i, w := range want {
		if got := p.Delay(i + 1); got != w {
			t.Errorf("Delay(%d) = %v, want %v", i+1, got, w)
		}
	}
	// Out-of-range retry numbers clamp to the first delay.
	if got := p.Delay(0); got != want[0] {
		t.Errorf("Delay(0) = %v, want %v", got, want[0])
	}
}

func TestZeroPolicyDefaults(t *testing.T) {
	var p Policy
	if got := p.Delay(1); got != DefaultBaseDelay {
		t.Errorf("zero policy first delay = %v, want %v", got, DefaultBaseDelay)
	}
	if got := p.Delay(100); got != DefaultMaxDelay {
		t.Errorf("zero policy capped delay = %v, want %v", got, DefaultMaxDelay)
	}
}

func TestDoSucceedsAfterFailures(t *testing.T) {
	clock := &fakeClock{}
	calls := 0
	err := Do(context.Background(), Policy{MaxRetries: 3, BaseDelay: 10 * time.Millisecond},
		clock, func(attempt int) error {
			calls++
			if attempt != calls {
				t.Errorf("attempt %d reported on call %d", attempt, calls)
			}
			if attempt < 3 {
				return errors.New("flaky")
			}
			return nil
		})
	if err != nil {
		t.Fatalf("Do = %v, want success", err)
	}
	if calls != 3 {
		t.Errorf("fn called %d times, want 3", calls)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	got := clock.recorded()
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("backoff schedule %v, want %v", got, want)
	}
}

func TestDoExhaustsRetries(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	err := Do(context.Background(), Policy{MaxRetries: 2, BaseDelay: time.Millisecond},
		&fakeClock{}, func(int) error { calls++; return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("Do = %v, want the last error", err)
	}
	if calls != 3 { // first try + 2 retries
		t.Errorf("fn called %d times, want 3", calls)
	}
}

func TestDoContextErrorsNotRetried(t *testing.T) {
	calls := 0
	err := Do(context.Background(), Policy{MaxRetries: 5}, &fakeClock{},
		func(int) error { calls++; return context.DeadlineExceeded })
	if !errors.Is(err, context.DeadlineExceeded) || calls != 1 {
		t.Errorf("deadline error retried: err %v, %d calls", err, calls)
	}
}

func TestDoCanceledDuringBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	clock := &fakeClock{block: true}
	done := make(chan error, 1)
	go func() {
		done <- Do(ctx, Policy{MaxRetries: 5, BaseDelay: time.Hour}, clock,
			func(int) error { return errors.New("flaky") })
	}()
	// Give Do time to enter the backoff wait, then cancel.
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Do = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Do did not observe cancellation during backoff")
	}
}

func TestDoPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := Do(ctx, Policy{}, &fakeClock{}, func(int) error { calls++; return nil })
	if !errors.Is(err, context.Canceled) || calls != 0 {
		t.Errorf("pre-canceled ctx: err %v, %d calls", err, calls)
	}
}
