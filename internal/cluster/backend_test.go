package cluster

import (
	"testing"
	"time"
)

func TestBreakerLifecycle(t *testing.T) {
	t0 := time.Unix(1000, 0)
	k := breaker{threshold: 3, cooldown: 5 * time.Second}

	// Closed: failures below the threshold keep requests flowing.
	if !k.allow(t0) {
		t.Fatal("fresh breaker should allow")
	}
	if k.failure(t0) {
		t.Fatal("failure 1 should not open")
	}
	if k.failure(t0) {
		t.Fatal("failure 2 should not open")
	}
	if !k.allow(t0) {
		t.Fatal("still closed at 2/3 failures")
	}

	// Third consecutive failure opens it for the cooldown.
	if !k.failure(t0) {
		t.Fatal("failure 3 should report the open transition")
	}
	if k.allow(t0.Add(time.Second)) {
		t.Fatal("open breaker should block during cooldown")
	}

	// After the cooldown exactly one half-open trial goes through.
	t1 := t0.Add(6 * time.Second)
	if !k.allow(t1) {
		t.Fatal("half-open trial should be allowed after cooldown")
	}
	if k.allow(t1) {
		t.Fatal("only one half-open trial at a time")
	}

	// A failed trial re-opens (and counts as an open transition).
	if !k.failure(t1) {
		t.Fatal("failed half-open trial should report re-open")
	}
	if k.allow(t1.Add(time.Second)) {
		t.Fatal("re-opened breaker should block")
	}

	// A successful trial closes it fully.
	t2 := t1.Add(6 * time.Second)
	if !k.allow(t2) {
		t.Fatal("second half-open trial should be allowed")
	}
	k.success()
	if !k.allow(t2) || !k.allow(t2) {
		t.Fatal("closed breaker should allow freely")
	}
	if k.failure(t2) {
		t.Fatal("single failure after close should not open")
	}
}

func TestBackendLoad(t *testing.T) {
	b := newBackend("b0", "http://x", 3, time.Second)
	if b.State() != StateHealthy {
		t.Fatalf("fresh backend state = %s", b.State())
	}
	b.queueDepth.Store(4)
	b.inflight.Store(2)
	b.proxied.Store(1)
	if got := b.load(); got != 7 {
		t.Fatalf("load = %d, want 7", got)
	}
}

// Ranking spillover candidates takes no half-open breaker trial: only
// the backend spillTarget returns is asked, so a candidate past its
// cooldown that loses on load keeps its trial for the next request.
func TestSpillTargetTakesOnlyItsTrial(t *testing.T) {
	c := &Coordinator{backends: map[string]*backend{}}
	for _, name := range []string{"b0", "b1", "b2"} {
		c.backends[name] = newBackend(name, "http://"+name, 3, time.Second)
		c.order = append(c.order, name)
	}
	b1, b2 := c.backends["b1"], c.backends["b2"]
	b1.queueDepth.Store(5)
	b2.queueDepth.Store(1)
	past := time.Now().Add(-time.Minute)
	for range 3 {
		b1.brk.failure(past)
	}
	if got := c.spillTarget("b0"); got != b2 {
		t.Fatalf("spillTarget = %v, want b2", got)
	}
	if !b1.brk.allow(time.Now()) {
		t.Fatal("ranking b1 took its half-open trial")
	}
}
