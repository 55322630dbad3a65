package engine

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/events"
)

// defaultHeartbeat paces the SSE keep-alive comments between events:
// frequent enough to defeat idle-connection timeouts in intermediaries,
// rare enough to be free.
const defaultHeartbeat = 15 * time.Second

// events streams a job's lifecycle as Server-Sent Events:
//
//	GET /v1/jobs/{id}/events
//
// Each event frame carries the per-job sequence number as its SSE id,
// the event type (queued, stage, done, failed, canceled) as
// its event name, and the JSON-encoded events.Event as
// its data. A reconnecting client sends the standard Last-Event-ID
// header (or ?after= for curl) to resume past the events it already
// saw; the stream replays from the job's bounded history ring, then
// follows live. The response ends after the job's terminal event; a
// client watching a job that already finished replays the recorded
// lifecycle and gets a clean EOF. Each event's job_id is the routable
// ID (see JobPrefixHeader). Heartbeat comments flow while the job is
// idle (queued or mid-stage).
func (s *server) jobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.e.Get(id)
	if !ok {
		WriteError(w, http.StatusNotFound, CodeNotFound, "unknown job "+id, 0)
		return
	}
	after := int64(0)
	lastID := r.Header.Get("Last-Event-ID")
	if lastID == "" {
		lastID = r.URL.Query().Get("after")
	}
	if lastID != "" {
		n, err := strconv.ParseInt(lastID, 10, 64)
		if err != nil || n < 0 {
			WriteError(w, http.StatusBadRequest, CodeInvalidSpec, "bad Last-Event-ID "+strconv.Quote(lastID), 0)
			return
		}
		after = n
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	rc.Flush()

	prefix := r.Header.Get(JobPrefixHeader)
	sub := j.stream.Subscribe(after, 0)
	defer sub.Cancel()

	heartbeat := s.cfg.Heartbeat
	if heartbeat <= 0 {
		heartbeat = defaultHeartbeat
	}
	ticker := time.NewTicker(heartbeat)
	defer ticker.Stop()

	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-sub.Events():
			if !ok {
				// Terminal event delivered (or the replay of a finished
				// job drained): end the response cleanly, noting any
				// events this subscriber lost to a full buffer.
				if n := sub.Dropped(); n > 0 {
					fmt.Fprintf(w, ": %d events dropped\n\n", n)
				}
				rc.Flush()
				return
			}
			if err := writeSSEEvent(w, ev, prefix); err != nil {
				return
			}
			rc.Flush()
		case <-ticker.C:
			if _, err := io.WriteString(w, ": heartbeat\n\n"); err != nil {
				return
			}
			rc.Flush()
		}
	}
}

// writeSSEEvent serializes one bus event as an SSE frame, its job ID
// prefixed with prefix.
func writeSSEEvent(w io.Writer, ev events.Event, prefix string) error {
	ev.JobID = prefix + ev.JobID
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
	return err
}

// ReadEvents reads the frames writeSSEEvent writes from r and passes
// each event to fn until fn returns false; heartbeats are skipped. A
// stream that ends first is io.ErrUnexpectedEOF.
func ReadEvents(r io.Reader, fn func(events.Event) bool) error {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		data, ok := bytes.CutPrefix(sc.Bytes(), []byte("data: "))
		if !ok {
			continue // the id and event lines repeat what the data holds
		}
		var ev events.Event
		if err := json.Unmarshal(data, &ev); err != nil {
			return fmt.Errorf("engine: bad event data: %w", err)
		}
		if !fn(ev) {
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return io.ErrUnexpectedEOF
}
