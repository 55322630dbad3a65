package engine

import (
	"net/http"
	"sort"
	"testing"
)

// assertShape checks a decoded JSON object against a pinned schema:
// every required key present, nothing outside required+optional. A
// failure here means the wire contract changed — fix the code or
// deliberately re-pin the golden lists (and document it in API.md).
func assertShape(t *testing.T, name string, got map[string]any, required, optional []string) {
	t.Helper()
	allowed := make(map[string]bool, len(required)+len(optional))
	for _, k := range required {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: required key %q missing", name, k)
		}
		allowed[k] = true
	}
	for _, k := range optional {
		allowed[k] = true
	}
	var extra []string
	for k := range got {
		if !allowed[k] {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		t.Errorf("%s: unpinned keys %v appeared — update the golden shape deliberately", name, extra)
	}
}

// The /v1 wire shapes are a compatibility contract. This test pins
// their top-level JSON keys so accidental field renames, retypes or
// additions fail loudly instead of shipping.
func TestGoldenAPIShapes(t *testing.T) {
	e, srv := newTestServer(t)

	// JobView, terminal and fully populated (trace included on the
	// single-job endpoint).
	j, err := e.Submit(s27Spec(KindGenerate))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, e, j.ID())
	var jobBody map[string]any
	if resp := getJSON(t, srv.URL+"/v1/jobs/"+j.ID(), &jobBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs/%s = %d", j.ID(), resp.StatusCode)
	}
	assertShape(t, "JobView", jobBody,
		[]string{"id", "kind", "circuit", "tenant", "priority", "status", "cache_hit", "queued_ms", "run_ms"},
		[]string{"error", "panic_stack", "result", "trace", "trace_id"})
	if jobBody["tenant"] != DefaultTenant {
		t.Errorf("anonymous job tenant = %v, want %q", jobBody["tenant"], DefaultTenant)
	}

	// Error envelope: one error object keyed by stable code.
	var envBody map[string]any
	if resp := getJSON(t, srv.URL+"/v1/jobs/j999", &envBody); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown job = %d, want 404", resp.StatusCode)
	}
	assertShape(t, "errorEnvelope", envBody, []string{"error"}, nil)
	errObj, ok := envBody["error"].(map[string]any)
	if !ok {
		t.Fatalf("envelope error member is %T, want object", envBody["error"])
	}
	assertShape(t, "APIError", errObj,
		[]string{"code", "message"},
		[]string{"retry_after_ms"})

	// Healthz: legacy status plus the load and per-tenant fields the
	// coordinator ranks by.
	var health map[string]any
	if resp := getJSON(t, srv.URL+"/v1/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/healthz = %d", resp.StatusCode)
	}
	assertShape(t, "Health", health,
		[]string{"status", "queue_depth", "inflight", "tenants", "now_unix_ms"},
		nil)
	if _, ok := health["tenants"].(map[string]any); !ok {
		t.Errorf("healthz tenants is %T, want object of per-tenant depths", health["tenants"])
	}

	// The stable error-code vocabulary itself (documented in API.md).
	wantCodes := []string{
		CodeOverloaded, CodeNotFound, CodeInvalidSpec, CodeEngineClosed,
		CodeNoStore, CodeUnauthorized, CodeQuotaExceeded,
	}
	golden := []string{
		"overloaded", "not_found", "invalid_spec", "engine_closed",
		"no_store", "unauthorized", "quota_exceeded",
	}
	for i, code := range wantCodes {
		if code != golden[i] {
			t.Errorf("stable code %d = %q, want %q", i, code, golden[i])
		}
	}
}
