// Package retry provides context-aware retry with exponential
// backoff: Do calls a function until it succeeds, the policy's retries
// are exhausted or its context ends. The cluster coordinator retries
// its forwarded submissions with it. Time is abstracted behind Clock
// so the backoff schedule is unit-testable with a fake clock.
package retry

import (
	"context"
	"errors"
	"time"
)

// Clock abstracts timer creation; tests substitute a fake.
type Clock interface {
	// After returns a channel that fires once d has elapsed.
	After(d time.Duration) <-chan time.Time
}

type systemClock struct{}

func (systemClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// System is the wall clock.
var System Clock = systemClock{}

// Backoff defaults, used for zero-valued Policy fields.
const (
	DefaultBaseDelay = 100 * time.Millisecond
	DefaultMaxDelay  = 30 * time.Second
)

// Policy shapes an exponential backoff schedule. The zero value is a
// usable policy: no retries, 100ms→30s doubling delays (relevant once
// MaxRetries is raised).
type Policy struct {
	// MaxRetries is the number of re-attempts after the first try;
	// 0 means the first failure is final.
	MaxRetries int
	// BaseDelay is the backoff before the first retry; each later one
	// doubles it.
	BaseDelay time.Duration
	// MaxDelay caps the grown delay.
	MaxDelay time.Duration
}

func (p Policy) withDefaults() Policy {
	if p.BaseDelay <= 0 {
		p.BaseDelay = DefaultBaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = DefaultMaxDelay
	}
	if p.MaxDelay < p.BaseDelay {
		p.MaxDelay = p.BaseDelay
	}
	return p
}

// Delay returns the backoff preceding retry number retry (1-based:
// retry 1 follows the first failed attempt).
func (p Policy) Delay(retry int) time.Duration {
	p = p.withDefaults()
	d := p.BaseDelay
	for i := 1; i < retry && d < p.MaxDelay; i++ {
		d *= 2
	}
	return min(d, p.MaxDelay)
}

// Do calls fn (passing the 1-based attempt number) until it succeeds,
// returns a context error, the policy's attempts are exhausted, or ctx
// expires during a backoff. It returns nil on success and the last
// error otherwise. A nil clock uses System.
func Do(ctx context.Context, p Policy, clock Clock, fn func(attempt int) error) error {
	if clock == nil {
		clock = System
	}
	p = p.withDefaults()
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := fn(attempt)
		if err == nil {
			return nil
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		if attempt > p.MaxRetries {
			return err
		}
		select {
		case <-clock.After(p.Delay(attempt)):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}
