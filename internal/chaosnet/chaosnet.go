// Package chaosnet injects network faults for the cluster chaos
// suite: a http.RoundTripper wrapper that adds per-host latency,
// error rates, connection drops and full partitions on the client
// side, and a net.Listener wrapper that partitions a backend on the
// server side (new connections are closed on accept, established
// ones are severed). Both are plain configuration wrappers — no
// build tags, no goroutines — so chaos tests run in the ordinary
// `go test -race` binary.
//
// Injected failures surface as transport errors (no HTTP response),
// which is exactly what a real partition looks like to the
// coordinator: its failure counting, health states and failover paths
// all exercise their production code.
package chaosnet

import (
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Rule is the fault profile of one host. The zero value passes
// traffic through untouched.
type Rule struct {
	// Latency is added to every request before it is forwarded
	// (canceled early if the request context expires).
	Latency time.Duration
	// ErrorRate is the probability [0,1] of failing a request with a
	// synthetic transport error.
	ErrorRate float64
	// DropRate is the probability [0,1] of failing a request with a
	// connection-reset error (distinct message, same effect).
	DropRate float64
	// Partitioned fails every request to the host.
	Partitioned bool
}

// OpError is the synthetic transport error chaosnet injects; it
// unwraps like a net error so callers can distinguish injected from
// real failures in test assertions.
type OpError struct {
	Host string
	Op   string
}

func (e *OpError) Error() string {
	return fmt.Sprintf("chaosnet: injected %s (host %s)", e.Op, e.Host)
}

// Timeout and Temporary make the error quack like a net.Error.
func (e *OpError) Timeout() bool   { return false }
func (e *OpError) Temporary() bool { return true }

// Transport is a fault-injecting http.RoundTripper. Rules are keyed
// by the request URL's host ("127.0.0.1:8421"); hosts without a rule
// pass through. Safe for concurrent use.
type Transport struct {
	base http.RoundTripper

	mu    sync.Mutex
	rules map[string]Rule
	rng   *rand.Rand

	injected atomic.Int64
}

// NewTransport wraps base (nil uses http.DefaultTransport) with a
// deterministic fault source.
func NewTransport(base http.RoundTripper, seed int64) *Transport {
	if base == nil {
		base = http.DefaultTransport
	}
	return &Transport{
		base:  base,
		rules: make(map[string]Rule),
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// SetRule replaces the fault profile of host.
func (t *Transport) SetRule(host string, r Rule) {
	t.mu.Lock()
	t.rules[host] = r
	t.mu.Unlock()
}

// Partition toggles a full partition of host, preserving the rest of
// its rule.
func (t *Transport) Partition(host string, on bool) {
	t.mu.Lock()
	r := t.rules[host]
	r.Partitioned = on
	t.rules[host] = r
	t.mu.Unlock()
}

// Clear removes every rule.
func (t *Transport) Clear() {
	t.mu.Lock()
	t.rules = make(map[string]Rule)
	t.mu.Unlock()
}

// Injected returns the number of faults injected so far.
func (t *Transport) Injected() int64 { return t.injected.Load() }

// decide snapshots the rule for host and draws the random outcomes
// under the lock (rand.Rand is not concurrency-safe); the blocking
// work happens outside it.
func (t *Transport) decide(host string) (r Rule, failErr error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r = t.rules[host]
	switch {
	case r.Partitioned:
		failErr = &OpError{Host: host, Op: "partition"}
	case r.DropRate > 0 && t.rng.Float64() < r.DropRate:
		failErr = &OpError{Host: host, Op: "connection drop"}
	case r.ErrorRate > 0 && t.rng.Float64() < r.ErrorRate:
		failErr = &OpError{Host: host, Op: "transport error"}
	}
	return r, failErr
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	rule, failErr := t.decide(req.URL.Host)
	if rule.Latency > 0 {
		timer := time.NewTimer(rule.Latency)
		select {
		case <-timer.C:
		case <-req.Context().Done():
			timer.Stop()
			return nil, req.Context().Err()
		}
	}
	if failErr != nil {
		t.injected.Add(1)
		return nil, failErr
	}
	return t.base.RoundTrip(req)
}

// Listener wraps a net.Listener with a server-side partition switch:
// while partitioned, newly accepted connections are closed
// immediately and every established connection is severed — the
// dialer sees connection resets, as with a dropped link.
type Listener struct {
	net.Listener

	mu          sync.Mutex
	partitioned bool
	conns       map[net.Conn]struct{}

	severed atomic.Int64
}

// WrapListener wraps l.
func WrapListener(l net.Listener) *Listener {
	return &Listener{Listener: l, conns: make(map[net.Conn]struct{})}
}

// Partition toggles the server-side partition. Turning it on severs
// every established connection.
func (l *Listener) Partition(on bool) {
	l.mu.Lock()
	l.partitioned = on
	var toClose []net.Conn
	if on {
		for c := range l.conns {
			toClose = append(toClose, c)
		}
		l.conns = make(map[net.Conn]struct{})
	}
	l.mu.Unlock()
	for _, c := range toClose {
		c.Close()
		l.severed.Add(1)
	}
}

// Severed returns the number of connections the partition cut.
func (l *Listener) Severed() int64 { return l.severed.Load() }

// Accept implements net.Listener.
func (l *Listener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		l.mu.Lock()
		if l.partitioned {
			l.mu.Unlock()
			c.Close()
			l.severed.Add(1)
			continue
		}
		l.conns[c] = struct{}{}
		l.mu.Unlock()
		return &trackedConn{Conn: c, l: l}, nil
	}
}

// forget drops a closed connection from the tracking set.
func (l *Listener) forget(c net.Conn) {
	l.mu.Lock()
	delete(l.conns, c)
	l.mu.Unlock()
}

type trackedConn struct {
	net.Conn
	l    *Listener
	once sync.Once
}

func (c *trackedConn) Close() error {
	c.once.Do(func() { c.l.forget(c.Conn) })
	return c.Conn.Close()
}
