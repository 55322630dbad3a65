// Package events is a small in-process pub/sub layer for job lifecycle
// events, built for the pdfd Server-Sent-Events endpoint: each job owns
// one bounded Stream; any number of subscribers (HTTP clients watching
// a job) attach to it with a bounded buffer each. A Bus holds only the
// counters shared by every stream made from it.
//
// Three properties shape the design:
//
//   - Publishing never blocks. A subscriber that cannot keep up loses
//     events (counted, per subscriber and bus-wide) rather than
//     stalling the engine's workers.
//   - Every event carries a per-job sequence number and the stream
//     keeps a bounded history ring, so a reconnecting client can
//     resume after the last event it saw (SSE Last-Event-ID) and a
//     late subscriber to a finished job still replays the whole
//     lifecycle.
//   - A stream is closed exactly once, after its terminal event;
//     subscriber channels then close, ending well-behaved SSE
//     responses without polling.
package events

import (
	"sync"
	"sync/atomic"
	"time"
)

// DefaultHistory bounds the per-job history ring, and the default
// subscriber buffer, when NewBus is given no explicit size. The engine
// passes its own bound, the most events one job publishes.
const DefaultHistory = 256

// Event is one job lifecycle occurrence.
type Event struct {
	// Seq numbers events within one job's stream, from 1; it is the
	// SSE event id, and Subscribe's afterSeq resumes past it.
	Seq int64 `json:"seq"`
	// JobID names the stream the event belongs to.
	JobID string `json:"job_id"`
	// Type is the event kind: queued, stage, done, failed, canceled
	// (the engine's vocabulary; the bus is agnostic).
	Type string `json:"type"`
	// At is the publication time.
	At time.Time `json:"at"`
	// Data carries small string attributes (stage name, error text);
	// nil for events without any.
	Data map[string]string `json:"data,omitempty"`
}

// Bus counts what the streams made from it publish, drop and serve.
// All methods are safe for concurrent use.
type Bus struct {
	history int

	dropped     atomic.Int64
	published   atomic.Int64
	subscribers atomic.Int64
}

// NewBus returns a bus whose streams keep history events each;
// history <= 0 uses DefaultHistory.
func NewBus(history int) *Bus {
	if history <= 0 {
		history = DefaultHistory
	}
	return &Bus{history: history}
}

// Dropped returns the total number of events dropped across all
// subscribers because their buffers were full.
func (b *Bus) Dropped() int64 { return b.dropped.Load() }

// Published returns the total number of events published.
func (b *Bus) Published() int64 { return b.published.Load() }

// Subscribers returns the number of currently attached subscriptions.
func (b *Bus) Subscribers() int64 { return b.subscribers.Load() }

// Stream is one job's event stream. Its history lives as long as the
// stream does. All methods are safe for concurrent use.
type Stream struct {
	bus   *Bus
	jobID string

	mu     sync.Mutex
	seq    int64
	ring   []Event // last len(ring) events, oldest first
	closed bool
	subs   map[*Subscription]struct{}
}

// NewStream returns an empty stream for jobID, counted on b.
func (b *Bus) NewStream(jobID string) *Stream {
	return &Stream{bus: b, jobID: jobID}
}

// Publish appends one event to the stream and fans it out to the
// subscribers; it never blocks (full subscriber buffers drop the event
// for that subscriber and count it). Publishing to a closed stream is
// a no-op returning a zero Event.
func (st *Stream) Publish(typ string, data map[string]string) Event {
	b := st.bus
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return Event{}
	}
	st.seq++
	ev := Event{Seq: st.seq, JobID: st.jobID, Type: typ, At: time.Now(), Data: data}
	if len(st.ring) == b.history {
		copy(st.ring, st.ring[1:])
		st.ring[len(st.ring)-1] = ev
	} else {
		st.ring = append(st.ring, ev)
	}
	for sub := range st.subs {
		sub.send(ev)
	}
	st.mu.Unlock()
	b.published.Add(1)
	return ev
}

// Close ends the stream: subscriber channels close and future Publish
// calls become no-ops. History is kept, so late subscribers still
// replay the recorded lifecycle (and then observe the closed channel).
// Closing an already-closed stream is a no-op.
func (st *Stream) Close() {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return
	}
	st.closed = true
	subs := st.subs
	st.subs = nil
	st.mu.Unlock()
	for sub := range subs {
		sub.detach()
	}
}

// Subscription is one attached consumer of a job's stream. Receive
// from Events; call Cancel when done (Cancel after the channel closed
// is fine and idempotent).
type Subscription struct {
	st        *Stream
	ch        chan Event
	dropped   atomic.Int64
	closeOnce sync.Once
}

// Events is the subscription's delivery channel. It closes after the
// job's stream closes (terminal event published) or Cancel is called.
func (s *Subscription) Events() <-chan Event { return s.ch }

// Dropped returns how many events this subscription lost to a full
// buffer.
func (s *Subscription) Dropped() int64 { return s.dropped.Load() }

// send delivers without blocking, counting drops locally and bus-wide.
func (s *Subscription) send(ev Event) {
	select {
	case s.ch <- ev:
	default:
		s.dropped.Add(1)
		s.st.bus.dropped.Add(1)
	}
}

// detach closes the delivery channel once.
func (s *Subscription) detach() {
	s.closeOnce.Do(func() {
		close(s.ch)
		s.st.bus.subscribers.Add(-1)
	})
}

// Subscribe attaches to the stream with a delivery buffer of bufSize
// events (<= 0 uses the history size): recorded events with Seq >
// afterSeq are replayed into the buffer first (dropping, with counts,
// if it is too small), then live events follow. Subscribing to a
// closed stream replays and returns a subscription whose channel is
// already closed after the replayed events are drained.
func (st *Stream) Subscribe(afterSeq int64, bufSize int) *Subscription {
	b := st.bus
	if bufSize <= 0 {
		bufSize = b.history
	}
	sub := &Subscription{st: st, ch: make(chan Event, bufSize)}
	b.subscribers.Add(1)
	st.mu.Lock()
	for _, ev := range st.ring {
		if ev.Seq > afterSeq {
			sub.send(ev)
		}
	}
	if st.closed {
		st.mu.Unlock()
		sub.detach()
		return sub
	}
	if st.subs == nil {
		st.subs = make(map[*Subscription]struct{})
	}
	st.subs[sub] = struct{}{}
	st.mu.Unlock()
	return sub
}

// Cancel detaches the subscription; its channel closes. Idempotent.
func (s *Subscription) Cancel() {
	s.st.mu.Lock()
	delete(s.st.subs, s)
	s.st.mu.Unlock()
	s.detach()
}
