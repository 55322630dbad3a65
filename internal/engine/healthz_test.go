package engine

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// /v1/healthz carries both shapes: the seed-era status string, the
// queue_depth/inflight load fields the cluster coordinator ranks
// backends by, and the per-tenant queue depths.
func TestHealthzBodyShapes(t *testing.T) {
	_, srv := newTestServer(t)
	const path = "/v1/healthz"
	var body map[string]any
	resp := getJSON(t, srv.URL+path, &body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", path, resp.StatusCode)
	}
	if body["status"] != "ok" {
		t.Errorf("%s legacy status field = %v, want ok", path, body["status"])
	}
	for _, key := range []string{"queue_depth", "inflight"} {
		if _, ok := body[key].(float64); !ok {
			t.Errorf("%s lacks numeric %q: %v", path, key, body)
		}
	}
	// The typed contract decodes too.
	var h Health
	resp2, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp2.Body).Decode(&h); err != nil {
		t.Fatalf("%s does not decode into Health: %v", path, err)
	}
	resp2.Body.Close()
	if h.Status != "ok" {
		t.Errorf("%s Health.Status = %q", path, h.Status)
	}
}

// Past the shed watermark the endpoint keeps its legacy contract (503,
// status "overloaded", Retry-After) and still reports the load fields.
func TestHealthzOverloaded(t *testing.T) {
	release := make(chan struct{})
	inj := InjectorFunc(func(ctx context.Context, stage Stage, id string) error {
		if stage != StagePrepare {
			return nil
		}
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	e := New(Config{Workers: 1, QueueDepth: 16, ShedWatermark: 3, Injector: inj})
	defer e.Close()
	defer close(release)
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()

	// Occupy the single worker first, so the next submissions stay
	// queued and the depth holds above the recovery point.
	if _, err := e.Submit(s27Spec(KindEnrich)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.Inflight() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("held job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := 0; i < 3; i++ {
		if _, err := e.Submit(s27Spec(KindEnrich)); err != nil && !errors.Is(err, ErrOverloaded) {
			t.Fatal(err)
		}
	}
	if !e.Overloaded() {
		t.Fatal("engine did not reach the shed watermark")
	}

	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overloaded healthz = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("overloaded healthz lacks Retry-After")
	}
	if h.Status != "overloaded" {
		t.Errorf("status = %q, want overloaded", h.Status)
	}
	if h.QueueDepth < 2 {
		t.Errorf("queue_depth = %d, want >= 2 while shedding", h.QueueDepth)
	}
}
