package cluster

import "testing"

// load sums a backend's reported and proxied work, and spillTarget
// picks the least-loaded healthy backend other than the excluded one.
func TestBackendLoad(t *testing.T) {
	b := newBackend("b0", "http://x")
	if b.State() != StateHealthy {
		t.Fatalf("fresh backend state = %s", b.State())
	}
	b.queueDepth.Store(4)
	b.inflight.Store(2)
	b.proxied.Store(1)
	if got := b.load(); got != 7 {
		t.Fatalf("load = %d, want 7", got)
	}

	c := &Coordinator{backends: map[string]*backend{}}
	for i, name := range []string{"b0", "b1", "b2", "b3"} {
		c.backends[name] = newBackend(name, "http://"+name)
		c.backends[name].queueDepth.Store(int64(4 - i))
		c.order = append(c.order, name)
	}
	c.backends["b3"].state.Store(StateDown)
	if got := c.spillTarget("b0"); got != c.backends["b2"] {
		t.Fatalf("spillTarget = %v, want b2 (least-loaded healthy, b3 down)", got)
	}
}
