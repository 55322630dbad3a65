package cluster

import (
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/engine"
)

const (
	// healthTimeout bounds one /v1/healthz probe.
	healthTimeout = time.Second
	// downAfter is the number of consecutive failed probes, or of
	// consecutive failed proxied requests, that marks a backend down.
	downAfter = 3
)

// healthLoop probes one backend roughly every HealthInterval until
// the coordinator closes. Each backend has exactly one health
// goroutine; it is the sole writer of that backend's load snapshot
// and the only one that brings a down backend back.
//
// The sleep between probes is jittered ±20% with a per-backend
// deterministic source, so a fleet of coordinators started together
// (or one coordinator with many backends) does not align its probes
// into synchronized bursts against the backends.
func (c *Coordinator) healthLoop(b *backend) {
	defer c.wg.Done()
	rng := rand.New(rand.NewSource(int64(ringHash(b.name))))
	for {
		c.probe(b)
		d := time.Duration((0.8 + 0.4*rng.Float64()) * float64(c.cfg.HealthInterval))
		timer := time.NewTimer(d)
		select {
		case <-c.ctx.Done():
			timer.Stop()
			return
		case <-timer.C:
		}
	}
}

// probe performs one /v1/healthz round trip and applies the state
// transition:
//
//	200 ok                           -> healthy (owns its keys, takes jobs)
//	503 overloaded/draining          -> draining (owns its keys, reads only)
//	error or other status xdownAfter -> down (skipped in its keys' owner chains)
//
// A single failed probe does not change state — transient blips must
// not move keys. Every probe that finds the backend healthy also
// flushes the replica copies hinted for it: a hint may have been
// queued by one failed install while the backend never left healthy.
//
// Each successful probe doubles as a clock-skew measurement: the
// backend reports its wall clock (Health.NowUnixMS), and assuming the
// response was generated halfway through the round trip, the
// backend's offset relative to the coordinator is its reported clock
// minus the round-trip midpoint. Trace assembly uses the estimate to
// rebase backend span timelines onto the coordinator clock.
func (c *Coordinator) probe(b *backend) {
	ctx, cancel := context.WithTimeout(c.ctx, healthTimeout)
	defer cancel()
	req, err := c.newOutboundRequest(ctx, http.MethodGet, b.baseURL+"/v1/healthz", nil)
	if err != nil {
		c.probeFailed(b)
		return
	}
	sent := time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		c.probeFailed(b)
		return
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	rtt := time.Since(sent)
	var h engine.Health
	parseOK := json.Unmarshal(body, &h) == nil
	if parseOK {
		b.queueDepth.Store(int64(h.QueueDepth))
		b.inflight.Store(int64(h.Inflight))
		b.setTenants(h.Tenants)
		if h.NowUnixMS != 0 {
			mid := sent.Add(rtt / 2).UnixMilli()
			b.skewMS.Store(h.NowUnixMS - mid)
			b.rttMicros.Store(rtt.Microseconds())
		}
	}
	switch {
	case resp.StatusCode == http.StatusOK && parseOK:
		b.probeFails = 0
		c.setState(b, StateHealthy)
		if c.repl != nil {
			c.repl.flushHints(b)
		}
	case resp.StatusCode == http.StatusServiceUnavailable:
		// The backend is alive but shedding (watermark tripped or a
		// graceful drain): it keeps its keys and serves reads, but new
		// jobs go to its successors.
		b.probeFails = 0
		c.setState(b, StateDraining)
	default:
		c.probeFailed(b)
	}
}

// probeFailed counts one failed probe, demoting the backend to down
// at the downAfter threshold.
func (c *Coordinator) probeFailed(b *backend) {
	b.probeFails++
	if b.probeFails >= downAfter {
		c.setState(b, StateDown)
	}
}

// setState records b's transition to next, if it is one. The health
// loop and request goroutines both call it, so the transition is a
// compare-and-swap: whichever caller makes it counts and logs it, once.
// Leaving down clears the request-failure count, so a recovered
// backend needs downAfter fresh failures to go down again. Placement
// is one static ring it does not touch: routing skips a down backend
// in its keys' owner chains, so only its keys move, and they return
// when it recovers.
func (c *Coordinator) setState(b *backend, next State) {
	prev := b.State()
	for prev != next && !b.state.CompareAndSwap(prev, next) {
		prev = b.State()
	}
	if prev == next {
		return
	}
	if prev == StateDown {
		b.reqFails.Store(0)
	}
	c.metrics.healthTransitions.With(b.name, string(next)).Inc()
	if next == StateHealthy {
		c.log.Info("backend state changed", "backend", b.name, "from", string(prev), "to", string(next))
	} else {
		c.log.Warn("backend state changed", "backend", b.name, "from", string(prev), "to", string(next))
	}
}
