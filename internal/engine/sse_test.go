package engine

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/events"
)

type sseFrame struct {
	id    int64
	event string
	data  string
}

// parseSSEFrames splits a complete SSE body into frames, ignoring
// comment lines (heartbeats).
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
			case strings.HasPrefix(line, "data: "):
				f.data, seen = strings.TrimPrefix(line, "data: "), true
			}
		}
		if seen {
			frames = append(frames, f)
		}
	}
	return frames
}

func eventTypes(frames []sseFrame) []string {
	types := make([]string, len(frames))
	for i, f := range frames {
		types[i] = f.event
	}
	return types
}

// A finished job's stream replays its whole recorded lifecycle from
// history and then ends with a clean EOF on the terminal event. A done
// event carries the result's cache_key; a failed one carries none.
func TestServerJobEventsReplay(t *testing.T) {
	e, srv := newTestServer(t)
	for _, tc := range []struct {
		spec     Spec
		terminal string
	}{
		{Spec{Kind: KindGenerate, Circuit: "s27", NP: 8, Seed: 1}, "done"},
		{Spec{Kind: KindFaultSim, Circuit: "s27", NP: 8, Seed: 1, Tests: []string{"01 -> 10"}}, "failed"},
	} {
		j, err := e.Submit(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		v, err := e.Wait(ctx, j.ID())
		cancel()
		if err != nil {
			t.Fatal(err)
		}

		resp, err := http.Get(srv.URL + "/v1/jobs/" + j.ID() + "/events")
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
			t.Fatalf("Content-Type = %q, want text/event-stream", ct)
		}
		body := readBody(t, resp) // job finished: the stream must EOF
		frames := parseSSEFrames(t, string(body))

		want := map[string]bool{"queued": false, "stage": false, tc.terminal: false}
		last := int64(0)
		var ev events.Event
		for _, f := range frames {
			if f.id <= last {
				t.Errorf("non-increasing SSE ids: %d after %d", f.id, last)
			}
			last = f.id
			if _, ok := want[f.event]; ok {
				want[f.event] = true
			}
			ev = events.Event{}
			if err := json.Unmarshal([]byte(f.data), &ev); err != nil {
				t.Fatalf("frame data is not an events.Event: %v\n%s", err, f.data)
			}
			if ev.JobID != j.ID() || ev.Seq != f.id {
				t.Errorf("frame/id mismatch: frame id %d event %+v", f.id, ev)
			}
		}
		for typ, ok := range want {
			if !ok {
				t.Errorf("lifecycle event %q missing from stream %v", typ, eventTypes(frames))
			}
		}
		if frames[len(frames)-1].event != tc.terminal {
			t.Errorf("stream did not end on the terminal event %s: %v", tc.terminal, eventTypes(frames))
		}
		key, ok := ev.Data["cache_key"]
		if tc.terminal == "done" && (v.Result == nil || key != v.Result.CacheKey || key == "") {
			t.Errorf("done event data %v, want the result's cache_key", ev.Data)
		}
		if tc.terminal != "done" && ok {
			t.Errorf("%s event carries cache_key %q", tc.terminal, key)
		}
	}
}

// Last-Event-ID resumes the stream past the events the client already
// saw.
func TestServerJobEventsResume(t *testing.T) {
	e, srv := newTestServer(t)
	j, err := e.Submit(Spec{Kind: KindGenerate, Circuit: "s27", NP: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := e.Wait(ctx, j.ID()); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/v1/jobs/" + j.ID() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	all := parseSSEFrames(t, string(readBody(t, resp)))
	if len(all) < 3 {
		t.Fatalf("want >= 3 lifecycle events, got %v", eventTypes(all))
	}

	req, _ := http.NewRequest("GET", srv.URL+"/v1/jobs/"+j.ID()+"/events", nil)
	req.Header.Set("Last-Event-ID", strconv.FormatInt(all[1].id, 10))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resumed := parseSSEFrames(t, string(readBody(t, resp2)))
	if len(resumed) != len(all)-2 {
		t.Fatalf("resume after id %d returned %d frames, want %d", all[1].id, len(resumed), len(all)-2)
	}
	if len(resumed) > 0 && resumed[0].id != all[2].id {
		t.Errorf("resume started at id %d, want %d", resumed[0].id, all[2].id)
	}
}

func TestServerJobEventsErrors(t *testing.T) {
	_, srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/v1/jobs/nope/events")
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}

	e2 := New(Config{Workers: 1})
	defer e2.Close()
	srv2 := httptest.NewServer(NewServer(e2))
	defer srv2.Close()
	j, err := e2.Submit(Spec{Kind: KindGenerate, Circuit: "s27", NP: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest("GET", srv2.URL+"/v1/jobs/"+j.ID()+"/events", nil)
	req.Header.Set("Last-Event-ID", "not-a-number")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp2)
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("bad Last-Event-ID: status %d, want 400", resp2.StatusCode)
	}
}

// A client that disconnects mid-stream must not strand the handler: the
// subscription detaches (subscriber gauge back to zero) and no
// goroutines leak, while the job itself keeps running.
func TestServerJobEventsDisconnect(t *testing.T) {
	release := make(chan struct{})
	injector := InjectorFunc(func(ctx context.Context, stage Stage, id string) error {
		if stage != StagePrepare {
			return nil
		}
		select { // hold the job mid-run so the stream stays live
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	e := New(Config{Workers: 1, Injector: injector})
	defer e.Close()
	srv := httptest.NewServer(NewServerWith(e, ServerConfig{Heartbeat: 10 * time.Millisecond}))
	defer srv.Close()

	baseline := runtime.NumGoroutine()
	j, err := e.Submit(Spec{Kind: KindGenerate, Circuit: "s27", NP: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/v1/jobs/"+j.ID()+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read until a live stage event (load, before the held prepare)
	// and one heartbeat have flushed, proving the stream is being
	// delivered incrementally.
	sawStage, sawHeartbeat := false, false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() && !(sawStage && sawHeartbeat) {
		switch line := sc.Text(); {
		case line == "event: stage":
			sawStage = true
		case strings.HasPrefix(line, ": heartbeat"):
			sawHeartbeat = true
		}
	}
	if !sawStage || !sawHeartbeat {
		t.Fatalf("stream ended early: stage=%v heartbeat=%v", sawStage, sawHeartbeat)
	}
	if got := e.Events().Subscribers(); got != 1 {
		t.Fatalf("subscribers = %d while streaming, want 1", got)
	}

	cancel() // client walks away; the handler must notice and detach
	resp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for e.Events().Subscribers() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("subscription not released %v after disconnect", 5*time.Second)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for runtime.NumGoroutine() > baseline+3 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The job was unaffected by the disconnect: release it and it
	// finishes normally.
	close(release)
	wctx, wcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer wcancel()
	v, err := e.Wait(wctx, j.ID())
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusDone {
		t.Fatalf("job status after disconnect = %s, want done", v.Status)
	}
}

// ReadEvents reads back what writeSSEEvent wrote, heartbeats between
// frames skipped, and stops where fn says; a stream cut before that is
// io.ErrUnexpectedEOF.
func TestReadEventsRoundTrip(t *testing.T) {
	st := events.NewBus(jobEvents).NewStream("j1")
	var b strings.Builder
	for _, ev := range []events.Event{
		st.Publish("queued", nil),
		st.Publish("done", map[string]string{"cache_key": "k1"}),
	} {
		if err := writeSSEEvent(&b, ev, "b0/"); err != nil {
			t.Fatal(err)
		}
		b.WriteString(": heartbeat\n\n")
	}
	var got []string
	err := ReadEvents(strings.NewReader(b.String()), func(ev events.Event) bool {
		got = append(got, fmt.Sprintf("%d %s %s %v", ev.Seq, ev.JobID, ev.Type, ev.Data))
		return ev.Type != "done"
	})
	if want := "[1 b0/j1 queued map[] 2 b0/j1 done map[cache_key:k1]]"; err != nil || fmt.Sprint(got) != want {
		t.Fatalf("read %v (%v), want %s", got, err, want)
	}
	cut := b.String()[:strings.Index(b.String(), "event: done")]
	if err := ReadEvents(strings.NewReader(cut), func(ev events.Event) bool { return ev.Type != "done" }); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("cut stream: %v, want io.ErrUnexpectedEOF", err)
	}
}
