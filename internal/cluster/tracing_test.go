package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// getAssembledTrace fetches GET /v1/traces/{trace_id} from the
// coordinator, failing the test on any non-200.
func getAssembledTrace(t *testing.T, base, traceID string) AssembledTrace {
	t.Helper()
	resp, err := http.Get(base + "/v1/traces/" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/traces/%s = %d: %s", traceID, resp.StatusCode, body)
	}
	var at AssembledTrace
	if err := json.Unmarshal(body, &at); err != nil {
		t.Fatalf("bad assembled trace: %v\n%s", err, body)
	}
	return at
}

// Acceptance: a submission through the coordinator produces one
// assembled trace — coordinator routing spans plus the backend's job
// timeline — under a single trace ID.
func TestClusterTraceAssembly(t *testing.T) {
	_, srv, _ := newFleet(t, 3)

	view, backendName := submitVia(t, srv.URL, enrichSpec(41))
	if view.TraceID == "" {
		t.Fatal("routed JobView carries no trace_id")
	}
	final := waitVia(t, srv.URL, view.ID)
	if final.Status != engine.StatusDone {
		t.Fatalf("job finished %s, want done", final.Status)
	}

	at := getAssembledTrace(t, srv.URL, view.TraceID)
	if at.TraceID != view.TraceID {
		t.Fatalf("assembled trace ID %s, want %s", at.TraceID, view.TraceID)
	}
	if at.Outcome != "ok" {
		t.Fatalf("assembled outcome %q: %+v", at.Outcome, at)
	}

	// Both nodes contributed, and the backend's timeline grafted
	// cleanly (no fetch error, known graft parent).
	if len(at.Nodes) != 2 || at.Nodes[0].Node != "coordinator" {
		t.Fatalf("nodes = %+v, want coordinator + backend", at.Nodes)
	}
	bn := at.Nodes[1]
	if bn.Node != backendName || bn.JobID != view.ID || bn.Error != "" {
		t.Fatalf("backend node = %+v, want %s running %s with no error", bn, backendName, view.ID)
	}
	if bn.ParentSpanID == "" {
		t.Fatal("backend timeline did not adopt the coordinator's trace context")
	}

	// The merged tree holds the coordinator's routing spans and the
	// backend's job-stage spans.
	byNode := map[string][]string{}
	parents := map[string]string{}
	for _, sp := range at.Spans {
		byNode[sp.Node] = append(byNode[sp.Node], sp.Name)
		parents[sp.ID] = sp.Parent
	}
	for _, want := range []string{"route", "forward"} {
		if !containsStr(byNode["coordinator"], want) {
			t.Fatalf("coordinator spans %v missing %q", byNode["coordinator"], want)
		}
	}
	for _, want := range []string{"job", "load", "prepare", "generation"} {
		if !containsStr(byNode[backendName], want) {
			t.Fatalf("backend spans %v missing %q", byNode[backendName], want)
		}
	}

	// One tree: every span except the coordinator root has a parent,
	// and the backend's root span grafted under a coordinator span.
	roots := 0
	for _, sp := range at.Spans {
		if sp.Parent == "" {
			roots++
			if sp.Node != "coordinator" || sp.Name != "route" {
				t.Fatalf("unexpected root span %+v", sp)
			}
			continue
		}
		if sp.Node != "coordinator" && sp.Name == "job" &&
			!strings.HasPrefix(sp.Parent, "coordinator:") {
			t.Fatalf("backend root span grafted under %q, want a coordinator span", sp.Parent)
		}
	}
	if roots != 1 {
		t.Fatalf("%d root spans, want exactly 1", roots)
	}
}

// A client that already carries a W3C traceparent keeps its trace
// identity through the coordinator and onto the backend.
func TestClusterTraceAdoptsCallerContext(t *testing.T) {
	_, srv, _ := newFleet(t, 3)

	caller := obs.NewTraceContext(true)
	b, _ := json.Marshal(enrichSpec(42))
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs", strings.NewReader(string(b)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceparentHeader, caller.Traceparent())
	req.Header.Set("X-Request-ID", "req-caller-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs = %d: %s", resp.StatusCode, body)
	}
	var v engine.JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("bad job view: %v\n%s", err, body)
	}
	if v.TraceID != caller.TraceID {
		t.Fatalf("backend job trace %s, want the caller's %s", v.TraceID, caller.TraceID)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "req-caller-1" {
		t.Fatalf("X-Request-ID echoed %q, want req-caller-1", got)
	}
	if resp.Header.Get("X-Pdfd-Backend-Request-ID") == "" {
		t.Fatal("no X-Pdfd-Backend-Request-ID on the routed response")
	}

	waitVia(t, srv.URL, v.ID)
	at := getAssembledTrace(t, srv.URL, caller.TraceID)
	if at.TraceID != caller.TraceID || len(at.Nodes) != 2 || at.Nodes[1].Error != "" {
		t.Fatalf("caller's trace did not assemble: %+v", at)
	}
}

// Acceptance: an injected backend error yields a tail-retained error
// trace, listable by outcome and referenced by an exemplar in the
// OpenMetrics exposition.
func TestClusterTraceErrorRetainedWithExemplar(t *testing.T) {
	_, srv, backs := newFleet(t, 3)
	for _, tb := range backs {
		tb.shed.Store(true)
	}

	resp, body := postSpec(t, srv.URL, enrichSpec(43))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("all-shed submit = %d: %s", resp.StatusCode, body)
	}

	// The failed routing trace is tail-retained as an error.
	lresp, err := http.Get(srv.URL + "/v1/traces?outcome=error")
	if err != nil {
		t.Fatal(err)
	}
	lbody, _ := io.ReadAll(lresp.Body)
	lresp.Body.Close()
	if lresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/traces = %d: %s", lresp.StatusCode, lbody)
	}
	var listed struct {
		Traces []obs.RetainedTrace `json:"traces"`
	}
	if err := json.Unmarshal(lbody, &listed); err != nil {
		t.Fatalf("bad trace list: %v\n%s", err, lbody)
	}
	if len(listed.Traces) != 1 {
		t.Fatalf("error traces = %+v, want exactly 1", listed.Traces)
	}
	rt := listed.Traces[0]
	if rt.Retained != obs.RetainError || rt.Outcome != "error" || rt.Error == "" {
		t.Fatalf("retained trace = %+v, want an explained error retention", rt)
	}

	// The route-latency histogram carries the retained trace as an
	// exemplar in the OpenMetrics exposition.
	mreq, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	mreq.Header.Set("Accept", "application/openmetrics-text")
	mresp, err := http.DefaultClient.Do(mreq)
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/metrics = %d", mresp.StatusCode)
	}
	if ct := mresp.Header.Get("Content-Type"); !strings.Contains(ct, "openmetrics-text") {
		t.Fatalf("Content-Type = %q, want OpenMetrics", ct)
	}
	om := string(mbody)
	if !strings.Contains(om, `pdfd_cluster_route_duration_seconds_bucket{outcome="error"`) {
		t.Fatalf("no error route histogram in exposition:\n%s", om)
	}
	if !strings.Contains(om, `# {trace_id="`+rt.TraceID+`"}`) {
		t.Fatalf("exposition carries no exemplar for retained trace %s", rt.TraceID)
	}

	// The trace is fetchable by ID even though routing failed; the
	// assembled view has only the coordinator's spans.
	at := getAssembledTrace(t, srv.URL, rt.TraceID)
	if at.Outcome != "error" || len(at.Nodes) != 1 {
		t.Fatalf("assembled error trace = %+v, want coordinator-only", at)
	}
}

// The coordinator estimates per-backend clock skew from health-probe
// round trips and reports it on assembled traces.
func TestClusterSkewEstimation(t *testing.T) {
	c, srv, _ := newFleet(t, 1)

	deadline := time.Now().Add(5 * time.Second)
	for c.backends["b0"].rttMicros.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("health probe never recorded a round trip")
		}
		time.Sleep(20 * time.Millisecond)
	}

	view, _ := submitVia(t, srv.URL, enrichSpec(44))
	waitVia(t, srv.URL, view.ID)
	at := getAssembledTrace(t, srv.URL, view.TraceID)
	if len(at.Nodes) != 2 {
		t.Fatalf("nodes = %+v", at.Nodes)
	}
	bn := at.Nodes[1]
	if bn.RTTMS <= 0 {
		t.Fatalf("backend node reports no probe RTT: %+v", bn)
	}
	// Same process, same clock: the estimate must be near zero — well
	// under a second even on a loaded test machine.
	if bn.SkewMS < -1000 || bn.SkewMS > 1000 {
		t.Fatalf("implausible skew estimate %v ms for an in-process backend", bn.SkewMS)
	}
}

func containsStr(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}

// A malformed trace-list filter is rejected in the shared error
// envelope, with the same message as on a backend.
func TestClusterTracesListBadLimit(t *testing.T) {
	_, srv, _ := newFleet(t, 1)
	resp, err := http.Get(srv.URL + "/v1/traces?limit=0")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("GET /v1/traces?limit=0 = %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var env struct {
		Error engine.APIError `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("not an error envelope: %v\n%s", err, body)
	}
	if env.Error.Code != engine.CodeInvalidSpec || env.Error.Message != `bad limit "0"` {
		t.Errorf("envelope = %+v, want invalid_spec / bad limit \"0\"", env.Error)
	}
}
