package engine

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// authedServer runs a keyed two-tenant roster behind a single gated
// worker, so quota tests can fill a queue deterministically.
func authedServer(t *testing.T) (*Engine, *httptest.Server, *dispatchRecorder) {
	t.Helper()
	rec := &dispatchRecorder{gate: make(chan struct{})}
	e := New(Config{
		Workers: 1,
		Tenants: []TenantConfig{
			{Name: "acme", Key: "k-acme", Weight: 2, QueueDepth: 1},
			{Name: "zeta", Key: "k-zeta"},
		},
		Injector: InjectorFunc(rec.inject),
	})
	srv := httptest.NewServer(NewServer(e))
	t.Cleanup(func() {
		srv.Close()
		e.Close()
	})
	return e, srv, rec
}

func doJSON(t *testing.T, method, url string, body any, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp, readBody(t, resp)
}

func specBody(seed int64) map[string]any {
	return map[string]any{"kind": "generate", "circuit": "s27", "np0": 10, "seed": seed}
}

// With bearer keys configured, every /v1 job route demands a valid
// credential and answers 401 in the unified envelope without one.
func TestAuthRequired(t *testing.T) {
	_, srv, rec := authedServer(t)
	defer close(rec.gate)

	for _, tc := range []struct {
		name string
		hdr  map[string]string
	}{
		{"missing credential", nil},
		{"unknown key", map[string]string{"Authorization": "Bearer nope"}},
		{"malformed scheme", map[string]string{"Authorization": "Basic a2V5"}},
		{"header cannot substitute for a key", map[string]string{TenantHeader: "acme"}},
	} {
		resp, body := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", specBody(fairnessSeq.Add(1)), tc.hdr)
		if resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("%s: POST /v1/jobs = %d, want 401 (%s)", tc.name, resp.StatusCode, body)
			continue
		}
		if resp.Header.Get("WWW-Authenticate") == "" {
			t.Errorf("%s: 401 without WWW-Authenticate", tc.name)
		}
		var env errorEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			t.Errorf("%s: 401 body not an envelope: %v (%s)", tc.name, err, body)
			continue
		}
		if env.Error.Code != CodeUnauthorized {
			t.Errorf("%s: code = %q, want %q", tc.name, env.Error.Code, CodeUnauthorized)
		}
	}

	// Listing requires auth too, but healthz and metrics stay open for
	// probes and scrapers.
	if resp, _ := doJSON(t, http.MethodGet, srv.URL+"/v1/jobs", nil, nil); resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("unauthenticated GET /v1/jobs = %d, want 401", resp.StatusCode)
	}
	for _, open := range []string{"/v1/healthz", "/v1/metrics"} {
		if resp, body := doJSON(t, http.MethodGet, srv.URL+open, nil, nil); resp.StatusCode != http.StatusOK {
			t.Errorf("unauthenticated GET %s = %d, want 200 (%s)", open, resp.StatusCode, body)
		}
	}
}

// The authenticated tenant owns the job: a Spec naming another tenant
// cannot ride a different queue.
func TestAuthResolvesTenant(t *testing.T) {
	_, srv, rec := authedServer(t)
	defer close(rec.gate)

	body := specBody(fairnessSeq.Add(1))
	body["tenant"] = "zeta" // lies about its tenant
	resp, raw := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", body,
		map[string]string{"Authorization": "Bearer k-acme"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("authed POST /v1/jobs = %d (%s)", resp.StatusCode, raw)
	}
	var v JobView
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	if v.Tenant != "acme" {
		t.Fatalf("job tenant = %q, want the authenticated acme", v.Tenant)
	}
	if v.Priority != PriorityInteractive {
		t.Fatalf("default priority = %q, want %q", v.Priority, PriorityInteractive)
	}
}

// Overflowing a tenant's queue bound answers 429 quota_exceeded with
// retry metadata, and the shed lands in that tenant's counter.
func TestQuotaExceededEnvelope(t *testing.T) {
	e, srv, rec := authedServer(t)
	defer close(rec.gate)
	auth := map[string]string{"Authorization": "Bearer k-acme"}

	// Job 1 occupies the gated worker, job 2 fills acme's depth-1
	// queue, job 3 must shed.
	for i := 0; i < 2; i++ {
		resp, raw := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", specBody(fairnessSeq.Add(1)), auth)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("fill #%d = %d (%s)", i, resp.StatusCode, raw)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for e.Inflight() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}

	resp, raw := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", specBody(fairnessSeq.Add(1)), auth)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota POST = %d, want 429 (%s)", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var env errorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != CodeQuotaExceeded {
		t.Errorf("code = %q, want %q", env.Error.Code, CodeQuotaExceeded)
	}
	if env.Error.RetryAfterMS <= 0 {
		t.Errorf("retry_after_ms = %d, want > 0", env.Error.RetryAfterMS)
	}

	var expo strings.Builder
	if err := e.Registry().WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	samples, _ := parsePromText(t, expo.String())
	if got := promValue(samples, "pdfd_tenant_shed_total", `tenant="acme",reason="quota"`); got != 1 {
		t.Errorf("acme quota sheds = %v, want 1", got)
	}
	for _, s := range samples["pdfd_tenant_shed_total"] {
		if strings.Contains(s.labels, `tenant="zeta"`) {
			t.Errorf("zeta has a shed series {%s} %v, want none", s.labels, s.value)
		}
	}
	// The other tenant is unaffected by acme's quota.
	if resp, raw := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", specBody(fairnessSeq.Add(1)),
		map[string]string{"Authorization": "Bearer k-zeta"}); resp.StatusCode != http.StatusAccepted {
		t.Errorf("zeta POST while acme is over quota = %d (%s)", resp.StatusCode, raw)
	}
}

// Without configured keys the engine trusts the forwarded tenant
// header — the coordinator authenticates upstream and relays identity.
//
// The job is held mid-run while the tenant is checked: an anonymous
// tenant is known only while it has work, and leaves once released.
func TestTenantHeaderTrustedWhenUnkeyed(t *testing.T) {
	rec := &dispatchRecorder{gate: make(chan struct{})}
	e := New(Config{Workers: 1, Injector: InjectorFunc(rec.inject)})
	srv := httptest.NewServer(NewServer(e))
	defer func() {
		srv.Close()
		e.Close()
	}()
	resp, raw := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", specBody(fairnessSeq.Add(1)),
		map[string]string{TenantHeader: "forwarded"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST with tenant header = %d (%s)", resp.StatusCode, raw)
	}
	var v JobView
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	if v.Tenant != "forwarded" {
		t.Fatalf("job tenant = %q, want forwarded", v.Tenant)
	}
	if _, ok := e.TenantDepths()["forwarded"]; !ok {
		t.Errorf("tenant forwarded missing from depths %v", e.TenantDepths())
	}
	rec.waitLen(t, 1)
	close(rec.gate)
	waitDone(t, e, v.ID)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, ok := e.TenantDepths()["forwarded"]; !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("idle tenant forwarded still in depths %v", e.TenantDepths())
		}
	}
}
