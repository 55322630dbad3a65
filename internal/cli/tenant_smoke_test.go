package cli

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
)

// tenantReq performs one JSON request with an optional bearer key.
func tenantReq(t *testing.T, method, url, key, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// The tenant smoke test (also run by `make tenant-smoke`): boot pdfd
// with a real -tenants roster file and prove the multi-tenant contract
// through the flag paths — bearer auth (401), per-tenant quota
// backpressure (429 + shed counters), tenant-labelled health and
// metrics, and no unversioned seed-era routes.
func TestTenantSmoke(t *testing.T) {
	roster := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(roster, []byte(`{
  "tenants": [
    {"name": "gold",   "key": "k-gold",   "weight": 3, "queue_depth": 64},
    {"name": "bronze", "key": "k-bronze", "weight": 1, "queue_depth": 2, "max_inflight": 1}
  ]
}`), 0o644); err != nil {
		t.Fatal(err)
	}

	var out syncBuffer
	// -drain 2s: the bronze backlog is deliberately slow; don't wait
	// out its jobs at shutdown.
	base, exit := startPDFD(t, &out, "-tenants", roster, "-drain", "2s")
	if !strings.Contains(out.String(), `msg="tenant roster loaded"`) {
		t.Errorf("roster load record missing:\n%s", out.String())
	}

	// Keys configured: no credential (or a wrong one) gets 401 in the
	// envelope, with a WWW-Authenticate challenge.
	for _, key := range []string{"", "k-wrong"} {
		resp, raw := tenantReq(t, http.MethodPost, base+"/v1/jobs", key,
			`{"kind":"generate","circuit":"s27","np0":10,"seed":1}`)
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("POST with key %q = %d, want 401 (%s)", key, resp.StatusCode, raw)
		}
		var env struct {
			Error engine.APIError `json:"error"`
		}
		if err := json.Unmarshal(raw, &env); err != nil || env.Error.Code != "unauthorized" {
			t.Fatalf("401 envelope = %s (err %v)", raw, err)
		}
		if resp.Header.Get("WWW-Authenticate") == "" {
			t.Error("401 without WWW-Authenticate")
		}
	}

	// The unversioned seed-era surface is gone.
	if resp, raw := tenantReq(t, http.MethodGet, base+"/healthz", "k-gold", ""); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /healthz = %d, want 404 (%s)", resp.StatusCode, raw)
	}

	// A valid key submits onto its own queue, whatever the spec claims.
	resp, raw := tenantReq(t, http.MethodPost, base+"/v1/jobs", "k-gold",
		`{"kind":"generate","circuit":"s27","np0":10,"seed":2,"tenant":"bronze"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("gold submit = %d (%s)", resp.StatusCode, raw)
	}
	var gv engine.JobView
	if err := json.Unmarshal(raw, &gv); err != nil {
		t.Fatal(err)
	}
	if gv.Tenant != "gold" {
		t.Fatalf("job tenant = %q, want the authenticated gold", gv.Tenant)
	}
	if resp, raw := tenantReq(t, http.MethodGet, base+"/v1/jobs/"+gv.ID+"?wait=30s", "k-gold", ""); resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), `"status": "done"`) {
		t.Fatalf("gold job wait = %d (%s)", resp.StatusCode, raw)
	}

	// Breach bronze's quota: slow (~1s) jobs against queue_depth 2 and
	// max_inflight 1 back the queue up within a few submissions.
	sawQuota := false
	for i := 0; i < 8 && !sawQuota; i++ {
		resp, raw := tenantReq(t, http.MethodPost, base+"/v1/jobs", "k-bronze",
			fmt.Sprintf(`{"kind":"enrich","circuit":"s641","np0":50,"seed":%d,"no_cache":true}`, i+1))
		switch resp.StatusCode {
		case http.StatusAccepted:
		case http.StatusTooManyRequests:
			sawQuota = true
			var env struct {
				Error engine.APIError `json:"error"`
			}
			if err := json.Unmarshal(raw, &env); err != nil || env.Error.Code != "quota_exceeded" {
				t.Fatalf("429 envelope = %s (err %v)", raw, err)
			}
			if env.Error.RetryAfterMS <= 0 || resp.Header.Get("Retry-After") == "" {
				t.Errorf("429 lacks retry metadata: retry_after_ms=%d header=%q",
					env.Error.RetryAfterMS, resp.Header.Get("Retry-After"))
			}
		default:
			t.Fatalf("bronze submit #%d = %d (%s)", i, resp.StatusCode, raw)
		}
	}
	if !sawQuota {
		t.Fatal("bronze never hit its quota across 8 submissions")
	}

	// Gold keeps flowing while bronze is backed up (weighted drain
	// through the real flag path).
	resp, raw = tenantReq(t, http.MethodPost, base+"/v1/jobs", "k-gold",
		`{"kind":"generate","circuit":"s27","np0":10,"seed":3}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("gold submit during bronze backlog = %d (%s)", resp.StatusCode, raw)
	}
	var gv2 engine.JobView
	if err := json.Unmarshal(raw, &gv2); err != nil {
		t.Fatal(err)
	}
	if resp, raw := tenantReq(t, http.MethodGet, base+"/v1/jobs/"+gv2.ID+"?wait=30s", "k-gold", ""); resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), `"status": "done"`) {
		t.Fatalf("gold job during backlog = %d (%s)", resp.StatusCode, raw)
	}

	// The health and metrics planes stay open and carry the per-tenant
	// families.
	var health engine.Health
	if resp, raw := tenantReq(t, http.MethodGet, base+"/v1/healthz", "", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("open healthz = %d", resp.StatusCode)
	} else if err := json.Unmarshal(raw, &health); err != nil {
		t.Fatal(err)
	}
	for _, tenant := range []string{"gold", "bronze", "default"} {
		if _, ok := health.Tenants[tenant]; !ok {
			t.Errorf("healthz tenants lacks %q: %v", tenant, health.Tenants)
		}
	}
	_, expo := tenantReq(t, http.MethodGet, base+"/v1/metrics", "", "")
	for _, want := range []string{
		"pdfd_tenant_queued{",
		"pdfd_tenant_running{",
		`pdfd_tenant_jobs_done_total{tenant="gold"}`,
		"pdfd_tenant_shed_total{",
		`reason="quota"`,
		"pdfd_tenant_queue_wait_seconds_bucket{",
	} {
		if !strings.Contains(string(expo), want) {
			t.Errorf("/v1/metrics missing %q:\n%s", want, grepMetric(string(expo), "pdfd_tenant_"))
		}
	}
	stopPDFD(t, exit)
}
