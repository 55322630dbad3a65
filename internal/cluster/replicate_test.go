package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/engine"
)

// TestWatchRetryCancelDuringBackoff pins the watcher's retry path:
// when the executing backend is unreachable, runWatch backs off for
// wait (RequestTimeout/2 — 15s at defaults) between polls, and a
// coordinator shutdown mid-backoff must end the watch immediately
// with nothing left running. The backoff timer is an explicitly
// stopped time.NewTimer rather than time.After precisely so cancel
// leaves no timer behind for the rest of the wait; pdflint's
// closeleak analyzer (time.After-in-a-loop) guards the idiom against
// regression, this test the prompt-cancel behavior.
func TestWatchRetryCancelDuringBackoff(t *testing.T) {
	c, _, backs := newFleet(t, 1)
	// Kill the backend so the first poll fails and the watch enters
	// its retry backoff (Close is idempotent; Cleanup closes again).
	backs[0].srv.Close()

	r := newReplicator(c, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	done := make(chan struct{})
	go func() {
		defer close(done)
		r.runWatch(ctx, "b0", "job-1", "digest")
	}()

	// Let the failed poll land and the backoff start.
	time.Sleep(100 * time.Millisecond)
	start := time.Now()
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("runWatch did not return after cancel during retry backoff")
	}
	if el := time.Since(start); el > time.Second {
		t.Errorf("runWatch took %v to observe cancel; want immediate return", el)
	}
}

// Replication copies a result by key as a stream: the replica receives
// the source's exact bytes, and the coordinator's heap does not grow
// with the result. The source serves the job's event stream, its
// long-poll view and a 16 MiB cached result, each in 64 KiB chunks;
// the replica hashes and drains the PUT.
func TestClusterReplicationStreams(t *testing.T) {
	const key = "k1"
	tests := make([]string, 650_000)
	for i := range tests {
		tests[i] = "0010010 -> 1010010"
	}
	payload, err := json.Marshal(engine.Result{Kind: engine.KindFaultSim, Circuit: "s27", CacheKey: key, Tests: tests})
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) < 16<<20 {
		t.Fatalf("payload is %d bytes, want at least 16 MiB", len(payload))
	}
	tests = nil
	chunked := func(w http.ResponseWriter, parts ...[]byte) {
		w.Header().Set("Content-Type", "application/json")
		for _, b := range parts {
			for len(b) > 0 {
				n := min(len(b), 1<<16)
				if _, err := w.Write(b[:n]); err != nil {
					return
				}
				b = b[n:]
			}
		}
	}
	src := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/jobs/j1/events":
			w.Header().Set("Content-Type", "text/event-stream")
			fmt.Fprintf(w, "id: 1\nevent: done\ndata: {\"seq\":1,\"job_id\":\"b0/j1\",\"type\":\"done\",\"data\":{\"cache_key\":%q}}\n\n", key)
		case "/v1/jobs/j1":
			chunked(w, []byte(`{"id":"b0/j1","status":"done","result":`), payload, []byte("}"))
		case "/v1/cache/" + key:
			chunked(w, payload)
		default:
			http.NotFound(w, r)
		}
	})
	received := make(chan []byte, 1)
	dst := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPut || r.URL.Path != "/v1/cache/"+key {
			http.NotFound(w, r)
			return
		}
		h := sha256.New()
		if _, err := io.Copy(h, r.Body); err != nil {
			engine.WriteError(w, http.StatusBadRequest, engine.CodeInvalidSpec, err.Error(), 0)
			return
		}
		select {
		case received <- h.Sum(nil):
		default:
			t.Error("the replica received a second PUT")
		}
		engine.WriteJSON(w, http.StatusOK, map[string]any{"key": key, "installed": true})
	})
	c, err := New(Config{
		Backends:          []BackendConf{{Name: "b0", URL: src.URL}, {Name: "b1", URL: dst.URL}},
		ReplicationFactor: 2,
		HealthInterval:    time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	grew := heapGrowth(func() { c.repl.runWatch(context.Background(), "b0", "j1", "digest") })
	want := sha256.Sum256(payload)
	select {
	case got := <-received:
		if !bytes.Equal(got, want[:]) {
			t.Errorf("the replica received other bytes than the source's %d", len(payload))
		}
	default:
		t.Fatal("the replica received no PUT")
	}
	if n := c.repl.installs.Load(); n != 1 {
		t.Errorf("installs = %d, want 1", n)
	}
	if grew >= 4<<20 {
		t.Errorf("heap in use grew by %d bytes copying a %d-byte result, want under 4 MiB", grew, len(payload))
	}
}

// A source that breaks mid-body loses the copy: the transport failure
// counts against the source, not against the replica whose PUT it cut
// short, and nothing is hinted.
func TestClusterCopySourceBreaks(t *testing.T) {
	src := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "4096")
		w.Write([]byte(`{"cache_key":"k1","tests":[`))
		http.NewResponseController(w).Flush()
		panic(http.ErrAbortHandler)
	})
	dst := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		engine.WriteJSON(w, http.StatusOK, map[string]any{"key": "k1", "installed": true})
	})
	c, err := New(Config{
		Backends:          []BackendConf{{Name: "b0", URL: src.URL}, {Name: "b1", URL: dst.URL}},
		ReplicationFactor: 2,
		HealthInterval:    time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	b0, b1 := c.backends["b0"], c.backends["b1"]
	c.repl.replicate(context.Background(), b0, "digest", "k1")
	r := c.repl
	if r.installs.Load() != 0 || r.failures.Load() != 1 || r.pendingHints() != 0 {
		t.Errorf("installs %d, failures %d, hints %d; want the copy lost: 0, 1, 0",
			r.installs.Load(), r.failures.Load(), r.pendingHints())
	}
	if b0.reqFails.Load() != 1 || b1.reqFails.Load() != 0 {
		t.Errorf("request failures: source %d, replica %d; want 1 and 0", b0.reqFails.Load(), b1.reqFails.Load())
	}
}
