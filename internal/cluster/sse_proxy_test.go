package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

type sseFrame struct {
	id    int64
	event string
}

// parseSSEFrames splits a complete SSE body into (id, event) frames,
// ignoring comments.
func parseSSEFrames(t *testing.T, body string) []sseFrame {
	t.Helper()
	var frames []sseFrame
	for _, block := range strings.Split(body, "\n\n") {
		var f sseFrame
		seen := false
		for _, line := range strings.Split(block, "\n") {
			switch {
			case strings.HasPrefix(line, "id: "):
				n, err := strconv.ParseInt(strings.TrimPrefix(line, "id: "), 10, 64)
				if err != nil {
					t.Fatalf("bad SSE id line %q: %v", line, err)
				}
				f.id, seen = n, true
			case strings.HasPrefix(line, "event: "):
				f.event, seen = strings.TrimPrefix(line, "event: "), true
			}
		}
		if seen {
			frames = append(frames, f)
		}
	}
	return frames
}

// Satellite: a client streaming a job's events through the coordinator
// can disconnect and resume with the standard Last-Event-ID header —
// the proxy passes it through, the resumed stream picks up exactly one
// past the last frame seen, and neither hop leaks goroutines.
func TestClusterSSEProxyResume(t *testing.T) {
	release := make(chan struct{})
	injector := engine.InjectorFunc(func(ctx context.Context, stage engine.Stage, id string) error {
		if stage != engine.StagePrepare {
			return nil
		}
		select { // hold the job mid-run so the first stream is live
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	e := engine.New(engine.Config{Workers: 1, Injector: injector})
	defer e.Close()
	bsrv := httptest.NewServer(engine.NewServerWith(e, engine.ServerConfig{Heartbeat: 10 * time.Millisecond}))
	defer bsrv.Close()

	c, err := New(Config{
		Backends:       []BackendConf{{Name: "b0", URL: bsrv.URL}},
		HealthInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := httptest.NewServer(NewServer(c))
	defer srv.Close()

	// Warm the proxy path so idle-connection goroutines land in the
	// baseline, then measure.
	if resp, err := http.Get(srv.URL + "/v1/healthz"); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	baseline := runtime.NumGoroutine()

	v, _ := submitVia(t, srv.URL, engine.Spec{Kind: engine.KindGenerate, Circuit: "s27", NP: 8, Seed: 1})

	// Live stream through the coordinator: read up to the first stage
	// event (load, before the held prepare), remember its id,
	// disconnect.
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/jobs/"+v.ID+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	var lastID int64
	sawStage := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "id: ") {
			lastID, _ = strconv.ParseInt(strings.TrimPrefix(line, "id: "), 10, 64)
		}
		if line == "event: stage" {
			sawStage = true
		}
		if sawStage && line == "" {
			break // full stage frame delivered
		}
	}
	if !sawStage || lastID == 0 {
		t.Fatalf("live stream ended early: stage=%v lastID=%d", sawStage, lastID)
	}
	cancel()
	resp.Body.Close()

	// Let the job finish, then resume past the frames already seen.
	close(release)
	if got := waitVia(t, srv.URL, v.ID); got.Status != engine.StatusDone {
		t.Fatalf("job = %s (%s)", got.Status, got.Error)
	}
	req2, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/jobs/"+v.ID+"/events", nil)
	req2.Header.Set("Last-Event-ID", strconv.FormatInt(lastID, 10))
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp2.Body) // terminal event ends the stream: clean EOF
	resp2.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	frames := parseSSEFrames(t, string(body))
	if len(frames) == 0 {
		t.Fatalf("resumed stream carried no frames:\n%s", body)
	}
	if frames[0].id != lastID+1 {
		t.Fatalf("resume started at id %d, want %d (no duplicates, no gap)", frames[0].id, lastID+1)
	}
	prev := lastID
	for _, f := range frames {
		if f.id != prev+1 {
			t.Fatalf("non-contiguous resumed ids: %d after %d", f.id, prev)
		}
		prev = f.id
	}
	if frames[len(frames)-1].event != "done" {
		t.Fatalf("resumed stream did not end on the terminal event: %+v", frames)
	}
	// The backend names the job in each event as the coordinator's
	// client does.
	for _, line := range strings.Split(string(body), "\n") {
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var ev struct {
				JobID string `json:"job_id"`
			}
			if err := json.Unmarshal([]byte(data), &ev); err != nil || ev.JobID != v.ID {
				t.Fatalf("event %s names job %q, want %q", data, ev.JobID, v.ID)
			}
		}
	}

	// Both hops wound down: no stranded proxy or subscription
	// goroutines once idle connections are released.
	http.DefaultClient.CloseIdleConnections()
	c.client.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+3 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := e.Events().Subscribers(); got != 0 {
		t.Fatalf("backend still holds %d subscriptions", got)
	}
}

// Satellite: trace continuity across SSE reconnects. An EventSource
// client re-sends its headers on every reconnect, so a resumed stream
// (Last-Event-ID) must reach the backend under the same trace ID as
// the original connect — and a client with no traceparent of its own
// still gets one minted at the coordinator edge.
func TestClusterSSEProxyTraceContinuity(t *testing.T) {
	e := engine.New(engine.Config{Workers: 1})
	defer e.Close()
	h := engine.NewServer(e)
	var mu sync.Mutex
	var eventTraceparents []string
	bsrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/events") {
			mu.Lock()
			eventTraceparents = append(eventTraceparents, r.Header.Get(obs.TraceparentHeader))
			mu.Unlock()
		}
		h.ServeHTTP(w, r)
	}))
	defer bsrv.Close()

	c, err := New(Config{
		Backends:       []BackendConf{{Name: "b0", URL: bsrv.URL}},
		HealthInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := httptest.NewServer(NewServer(c))
	defer srv.Close()

	v, _ := submitVia(t, srv.URL, engine.Spec{Kind: engine.KindGenerate, Circuit: "s27", NP: 8, Seed: 2})
	if got := waitVia(t, srv.URL, v.ID); got.Status != engine.StatusDone {
		t.Fatalf("job = %s (%s)", got.Status, got.Error)
	}

	caller := obs.NewTraceContext(true)
	stream := func(lastEventID string) []sseFrame {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/jobs/"+v.ID+"/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(obs.TraceparentHeader, caller.Traceparent())
		if lastEventID != "" {
			req.Header.Set("Last-Event-ID", lastEventID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body) // job is terminal: clean EOF
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return parseSSEFrames(t, string(body))
	}

	first := stream("")
	if len(first) < 2 {
		t.Fatalf("first stream carried %d frames, want the full history", len(first))
	}
	// Reconnect as a browser would: same headers plus Last-Event-ID.
	resumed := stream(strconv.FormatInt(first[0].id, 10))
	if len(resumed) == 0 || resumed[0].id != first[0].id+1 {
		t.Fatalf("resume did not pick up past frame %d: %+v", first[0].id, resumed)
	}

	mu.Lock()
	seen := append([]string(nil), eventTraceparents...)
	mu.Unlock()
	if len(seen) != 2 {
		t.Fatalf("backend saw %d /events requests, want 2", len(seen))
	}
	for i, hdr := range seen {
		tc, ok := obs.ParseTraceparent(hdr)
		if !ok {
			t.Fatalf("connect %d reached the backend with traceparent %q", i, hdr)
		}
		if tc.TraceID != caller.TraceID {
			t.Fatalf("connect %d carried trace %s, want the caller's %s", i, tc.TraceID, caller.TraceID)
		}
	}

	// A client with no traceparent still produces one at the backend:
	// the coordinator edge mints it.
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/jobs/"+v.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	mu.Lock()
	last := eventTraceparents[len(eventTraceparents)-1]
	mu.Unlock()
	if _, ok := obs.ParseTraceparent(last); !ok {
		t.Fatalf("headerless client reached the backend with traceparent %q, want a minted one", last)
	}
}
