package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
)

// testBackend is one in-process pdfd node: a real engine behind a real
// HTTP server, with a switchable shed wrapper so tests can force 503s
// on submissions without actually filling the queue.
type testBackend struct {
	name string
	e    *engine.Engine
	srv  *httptest.Server
	shed atomic.Bool
}

func newTestBackend(t *testing.T, name string) *testBackend {
	t.Helper()
	tb := &testBackend{name: name}
	tb.e = engine.New(engine.Config{Workers: 2})
	h := engine.NewServer(tb.e)
	tb.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if tb.shed.Load() && r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			w.Header().Set("Retry-After", "1")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, `{"error":{"code":"overloaded","message":"test shed","retry_after_ms":1000}}`)
			return
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		tb.srv.Close()
		tb.e.Close()
	})
	return tb
}

// newFleet boots n backends plus a coordinator with test-speed health
// probes, returning the coordinator, its HTTP server and the backends.
func newFleet(t *testing.T, n int) (*Coordinator, *httptest.Server, []*testBackend) {
	t.Helper()
	backs := make([]*testBackend, n)
	confs := make([]BackendConf, n)
	for i := range backs {
		name := fmt.Sprintf("b%d", i)
		backs[i] = newTestBackend(t, name)
		confs[i] = BackendConf{Name: name, URL: backs[i].srv.URL}
	}
	c, err := New(Config{
		Backends:       confs,
		HealthInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(c))
	t.Cleanup(func() {
		srv.Close()
		c.Close()
	})
	return c, srv, backs
}

func enrichSpec(seed int64) engine.Spec {
	return engine.Spec{Kind: engine.KindEnrich, Circuit: "s27", NP0: 10, Seed: seed}
}

func postSpec(t *testing.T, base string, spec engine.Spec) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// submitVia submits through the coordinator expecting a 202, returning
// the routed view and the backend that took the job.
func submitVia(t *testing.T, base string, spec engine.Spec) (engine.JobView, string) {
	t.Helper()
	resp, body := postSpec(t, base, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs = %d: %s", resp.StatusCode, body)
	}
	var v engine.JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("bad job view: %v\n%s", err, body)
	}
	return v, resp.Header.Get("X-Pdfd-Backend")
}

// waitVia polls the coordinator's proxied GET until the job is
// terminal.
func waitVia(t *testing.T, base, id string) engine.JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var v engine.JobView
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id + "?wait=2s")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/jobs/%s = %d: %s", id, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatalf("bad job view: %v\n%s", err, body)
		}
		if v.Status.Terminal() {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, v.Status)
		}
	}
}

// Acceptance (a): resubmitting an identical spec routes to the ring
// owner both times and the second run hits the owner's result cache.
func TestClusterAffinityAndCacheHit(t *testing.T) {
	c, srv, _ := newFleet(t, 3)
	spec := enrichSpec(1)
	owner := c.Owner(engine.SpecDigest(spec))
	if owner == "" {
		t.Fatal("empty ring")
	}

	v1, backend1 := submitVia(t, srv.URL, spec)
	if backend1 != owner {
		t.Fatalf("first submit routed to %s, ring owner is %s", backend1, owner)
	}
	done1 := waitVia(t, srv.URL, v1.ID)
	if done1.Status != engine.StatusDone {
		t.Fatalf("job 1 = %s (%s)", done1.Status, done1.Error)
	}
	if done1.CacheHit {
		t.Fatal("first run should not be a cache hit")
	}

	v2, backend2 := submitVia(t, srv.URL, spec)
	if backend2 != owner {
		t.Fatalf("resubmit routed to %s, want owner %s", backend2, owner)
	}
	done2 := waitVia(t, srv.URL, v2.ID)
	if done2.Status != engine.StatusDone {
		t.Fatalf("job 2 = %s (%s)", done2.Status, done2.Error)
	}
	if !done2.CacheHit {
		t.Fatal("resubmit on the owning backend should hit its result cache")
	}
}

// Acceptance (b): killing a backend reroutes its ring range — new
// submissions keep getting accepted (failover during the detection
// window, ring reassignment after) and every job accepted by a
// surviving backend stays readable through the coordinator.
func TestClusterBackendDeathReroutes(t *testing.T) {
	c, srv, backs := newFleet(t, 3)

	// Spread jobs until every backend owns at least one of them.
	type placed struct {
		id    string
		owner string
	}
	var jobs []placed
	ownersSeen := map[string]bool{}
	for seed := int64(1); seed <= 12 && len(ownersSeen) < 3; seed++ {
		spec := enrichSpec(seed)
		owner := c.Owner(engine.SpecDigest(spec))
		v, backend := submitVia(t, srv.URL, spec)
		if backend != owner {
			t.Fatalf("seed %d routed to %s, owner %s", seed, backend, owner)
		}
		ownersSeen[owner] = true
		jobs = append(jobs, placed{id: v.ID, owner: owner})
	}
	if len(ownersSeen) < 3 {
		t.Fatalf("12 seeds only reached owners %v", ownersSeen)
	}
	for _, j := range jobs {
		waitVia(t, srv.URL, j.id)
	}

	// Kill b2's server outright: connections now refuse.
	victim := backs[2]
	victim.srv.Close()

	// A spec owned by the victim, submitted inside the detection
	// window, must still be accepted — ring-successor failover.
	var victimSpec engine.Spec
	for seed := int64(100); ; seed++ {
		if s := enrichSpec(seed); c.Owner(engine.SpecDigest(s)) == victim.name {
			victimSpec = s
			break
		}
	}
	v, backend := submitVia(t, srv.URL, victimSpec)
	if backend == victim.name {
		t.Fatalf("submission routed to the dead backend %s", backend)
	}
	if got := waitVia(t, srv.URL, v.ID); got.Status != engine.StatusDone {
		t.Fatalf("failover job = %s (%s)", got.Status, got.Error)
	}

	// The health loop marks the victim down and removes it from the
	// ring; its range moves to the survivors.
	deadline := time.Now().Add(5 * time.Second)
	for c.Owner(engine.SpecDigest(victimSpec)) == victim.name {
		if time.Now().After(deadline) {
			t.Fatal("victim still owns its range after death")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := c.Healthy(); got != 2 {
		t.Fatalf("Healthy = %d, want 2", got)
	}

	// Every job accepted by a survivor is still there, terminal and
	// readable through the coordinator.
	for _, j := range jobs {
		if j.owner == victim.name {
			continue
		}
		got := waitVia(t, srv.URL, j.id)
		if !got.Status.Terminal() {
			t.Fatalf("survivor job %s no longer terminal: %s", j.id, got.Status)
		}
	}

	// Reads against the dead backend answer backend_down, not a hang.
	for _, j := range jobs {
		if j.owner != victim.name {
			continue
		}
		resp, err := http.Get(srv.URL + "/v1/jobs/" + j.id)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadGateway {
			t.Fatalf("read from dead backend = %d: %s", resp.StatusCode, body)
		}
		var env struct {
			Error engine.APIError `json:"error"`
		}
		if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != CodeBackendDown {
			t.Fatalf("want backend_down envelope, got %s", body)
		}
		break
	}
}

// A malformed spec gets pdfd's invalid_spec message from the
// coordinator too, on submit and as a batch item: all three decode it
// with engine.DecodeSpec.
func TestClusterSpecErrorsMatchPDFD(t *testing.T) {
	_, srv, backs := newFleet(t, 1)
	for _, tc := range []struct{ body, msg string }{
		{`{"kind":"enrich","circuit":"s27","workers":4}`, `unknown field "workers" in job spec`},
		{`{"kind":"enrich","circuit":"s27","max_retries":2}`, `unknown field "max_retries" in job spec`},
		{`{"kind":"enrich","circuit":"s27","np0":"ten"}`, ""},
	} {
		message := func(base string) string {
			resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var env struct {
				Error engine.APIError `json:"error"`
			}
			if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(raw, &env) != nil || env.Error.Code != engine.CodeInvalidSpec {
				t.Fatalf("POST %s/v1/jobs %s = %d %s, want 400 invalid_spec", base, tc.body, resp.StatusCode, raw)
			}
			return env.Error.Message
		}
		want := message(backs[0].srv.URL)
		if tc.msg != "" && want != tc.msg {
			t.Errorf("pdfd message %q, want %q", want, tc.msg)
		}
		if got := message(srv.URL); got != want {
			t.Errorf("coordinator submit message %q, pdfd says %q", got, want)
		}

		body, _ := json.Marshal(BatchRequest{Jobs: []json.RawMessage{json.RawMessage(tc.body)}})
		resp, err := http.Post(srv.URL+"/v1/jobs:batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var br BatchResponse
		err = json.NewDecoder(resp.Body).Decode(&br)
		resp.Body.Close()
		if err != nil || len(br.Results) != 1 {
			t.Fatalf("batch response: %v %+v", err, br)
		}
		if it := br.Results[0]; it.Status != "rejected" || it.Error == nil ||
			it.Error.Code != engine.CodeInvalidSpec || it.Error.Message != want {
			t.Errorf("batch item = %+v, want invalid_spec %q", it, want)
		}
	}
}

// Acceptance (c): POST /v1/jobs:batch fans out with per-job outcomes,
// and a shedding ring owner's jobs spill over to the least-loaded
// backend instead of failing.
func TestClusterBatchAndSpillover(t *testing.T) {
	c, srv, backs := newFleet(t, 3)

	// A batch of valid specs plus one broken entry: per-job results,
	// not all-or-nothing.
	var entries []json.RawMessage
	for seed := int64(1); seed <= 6; seed++ {
		b, _ := json.Marshal(enrichSpec(seed))
		entries = append(entries, b)
	}
	entries = append(entries, json.RawMessage(`{"kind":"enrich","circuit":"s27","bogus":true}`))
	body, _ := json.Marshal(BatchRequest{Jobs: entries})
	resp, err := http.Post(srv.URL+"/v1/jobs:batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch = %d: %s", resp.StatusCode, raw)
	}
	var br BatchResponse
	if err := json.Unmarshal(raw, &br); err != nil {
		t.Fatal(err)
	}
	if br.Accepted != 6 || br.Rejected != 1 || len(br.Results) != 7 {
		t.Fatalf("accepted=%d rejected=%d results=%d: %s", br.Accepted, br.Rejected, len(br.Results), raw)
	}
	for i, it := range br.Results {
		if it.Index != i {
			t.Fatalf("result %d carries index %d", i, it.Index)
		}
		if i < 6 {
			if it.Status != "accepted" || it.ID == "" || it.Backend != it.Owner || it.Affinity != "owner" {
				t.Fatalf("result %d = %+v, want owner-affine accept", i, it)
			}
			if got := c.Owner(engine.SpecDigest(enrichSpec(int64(i + 1)))); got != it.Owner {
				t.Fatalf("result %d owner %s, ring says %s", i, it.Owner, got)
			}
		} else if it.Status != "rejected" || it.Error == nil || it.Error.Code != engine.CodeInvalidSpec {
			t.Fatalf("bogus entry = %+v, want invalid_spec rejection", it)
		}
	}
	for _, it := range br.Results[:6] {
		waitVia(t, srv.URL, it.ID)
	}

	// Force one backend to shed submissions while staying healthy on
	// /v1/healthz: its owned jobs must spill over, not bounce.
	shedder := backs[0]
	shedder.shed.Store(true)
	var spec engine.Spec
	for seed := int64(200); ; seed++ {
		if s := enrichSpec(seed); c.Owner(engine.SpecDigest(s)) == shedder.name {
			spec = s
			break
		}
	}
	sresp, sbody := postSpec(t, srv.URL, spec)
	if sresp.StatusCode != http.StatusAccepted {
		t.Fatalf("spillover submit = %d: %s", sresp.StatusCode, sbody)
	}
	if got := sresp.Header.Get("X-Pdfd-Affinity"); got != "spillover" {
		t.Fatalf("affinity = %q, want spillover", got)
	}
	if got := sresp.Header.Get("X-Pdfd-Backend"); got == shedder.name || got == "" {
		t.Fatalf("spillover landed on %q", got)
	}
	var sv engine.JobView
	if err := json.Unmarshal(sbody, &sv); err != nil {
		t.Fatal(err)
	}
	if got := waitVia(t, srv.URL, sv.ID); got.Status != engine.StatusDone {
		t.Fatalf("spilled job = %s (%s)", got.Status, got.Error)
	}
	if c.metrics.spillovers.Load() == 0 {
		t.Fatal("spillover counter did not move")
	}

	// With every backend shedding, the owner's 503 envelope is relayed
	// (engine code "overloaded", Retry-After intact) — the cluster adds
	// no failure mode of its own.
	for _, tb := range backs {
		tb.shed.Store(true)
	}
	fresp, fbody := postSpec(t, srv.URL, spec)
	if fresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("all-shed submit = %d: %s", fresp.StatusCode, fbody)
	}
	var env struct {
		Error engine.APIError `json:"error"`
	}
	if err := json.Unmarshal(fbody, &env); err != nil || env.Error.Code != engine.CodeOverloaded {
		t.Fatalf("want relayed overloaded envelope, got %s", fbody)
	}
	if fresp.Header.Get("Retry-After") == "" {
		t.Fatal("relayed 503 lost its Retry-After header")
	}
}

// The coordinator's own healthz: fleet summary with per-backend load,
// 503 no_backend once nothing is healthy.
func TestClusterHealthz(t *testing.T) {
	c, srv, backs := newFleet(t, 2)
	var hv HealthView
	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &hv); err != nil {
		t.Fatal(err)
	}
	if hv.Status != "ok" || hv.Healthy != 2 || len(hv.Backends) != 2 {
		t.Fatalf("healthz body = %s", body)
	}
	if _, ok := hv.Backends["b0"]; !ok {
		t.Fatalf("healthz body lacks b0: %s", body)
	}

	for _, tb := range backs {
		tb.srv.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Healthy() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("backends never marked down")
		}
		time.Sleep(20 * time.Millisecond)
	}
	resp, err = http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("dead-fleet healthz = %d: %s", resp.StatusCode, body)
	}
	var hv2 HealthView
	if err := json.Unmarshal(body, &hv2); err != nil || hv2.Status != CodeNoBackend {
		t.Fatalf("dead-fleet healthz body = %s", body)
	}

	// Submissions now fail fast with no_backend.
	resp2, body2 := postSpec(t, srv.URL, enrichSpec(1))
	var env struct {
		Error engine.APIError `json:"error"`
	}
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("dead-fleet submit = %d: %s", resp2.StatusCode, body2)
	}
	if err := json.Unmarshal(body2, &env); err != nil || env.Error.Code != CodeNoBackend {
		t.Fatalf("want no_backend envelope, got %s", body2)
	}
}

// The Prometheus exposition carries the cluster families with
// per-backend labels.
func TestClusterMetricsExposition(t *testing.T) {
	_, srv, _ := newFleet(t, 2)
	v, _ := submitVia(t, srv.URL, enrichSpec(1))
	waitVia(t, srv.URL, v.ID)

	resp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"pdfd_cluster_jobs_routed_total{",
		"pdfd_cluster_backend_up{backend=\"b0\"}",
		"pdfd_cluster_backends_healthy 2",
		"pdfd_cluster_proxy_request_duration_seconds_bucket",
		"pdfd_coordinator_http_requests_total{",
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("exposition lacks %q", want)
		}
	}
}

// sample reads the value of one series, written as in the exposition
// (name{labels}), off the coordinator's exposition.
func sample(t *testing.T, c *Coordinator, series string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			return v
		}
	}
	t.Fatalf("exposition lacks %s", series)
	return ""
}

// The proxy inflight gauge reads the requests in flight to a backend:
// 1 while a proxied long-poll is held, 0 once it returned.
func TestClusterProxyInflightGauge(t *testing.T) {
	held, release := make(chan struct{}), make(chan struct{})
	bsrv := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		close(held)
		<-release
		engine.WriteJSON(w, http.StatusOK, engine.JobView{ID: "j1", Status: engine.StatusDone})
	})
	c, srv := coordinatorOver(t, bsrv.URL, Config{})
	const series = `pdfd_cluster_proxy_inflight{backend="b0"}`
	if got := sample(t, c, series); got != "0" {
		t.Fatalf("%s = %s before any request, want 0", series, got)
	}
	done := make(chan reply, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/v1/jobs/b0/j1?wait=10s")
		if err != nil {
			done <- reply{}
			return
		}
		resp.Body.Close()
		done <- reply{status: resp.StatusCode}
	}()
	<-held
	if got := sample(t, c, series); got != "1" {
		t.Errorf("%s = %s while the long-poll is held, want 1", series, got)
	}
	close(release)
	if got := <-done; got.status != http.StatusOK {
		t.Fatalf("long-poll = %d, want 200", got.status)
	}
	if got := sample(t, c, series); got != "0" {
		t.Errorf("%s = %s after the long-poll returned, want 0", series, got)
	}
}

// Placement follows health: with the ring owner down its successor
// owns the key (affinity owner); with the owner draining the successor
// takes the job as failover; the ring-nodes gauge counts the backends
// that are not down.
func TestClusterPlacementFollowsHealth(t *testing.T) {
	names := []string{"b0", "b1", "b2"}
	health := make([]atomic.Int32, len(names))
	confs := make([]BackendConf, len(names))
	for i, name := range names {
		health[i].Store(http.StatusOK)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/healthz" {
				engine.WriteJSON(w, int(health[i].Load()), engine.Health{Status: "ok"})
				return
			}
			engine.WriteJSON(w, http.StatusAccepted, engine.JobView{ID: "j1", Status: engine.StatusQueued})
		}))
		t.Cleanup(srv.Close)
		confs[i] = BackendConf{Name: name, URL: srv.URL}
	}
	c, err := New(Config{Backends: confs, HealthInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	spec := enrichSpec(1)
	digest := engine.SpecDigest(spec)
	ref := NewRing(0)
	for _, n := range names {
		ref.Add(n)
	}
	chain := ref.Owners(digest, len(names))
	owner, succ := chain[0], chain[1]
	idx := map[string]int{"b0": 0, "b1": 1, "b2": 2}[owner]
	route := func() Route {
		t.Helper()
		res, rerr := c.Submit(context.Background(), spec)
		if rerr != nil {
			t.Fatalf("submit: %v", rerr)
		}
		return res.Route
	}
	settle := func(st State, wantOwner string) {
		t.Helper()
		waitFor(t, 5*time.Second, "owner "+string(st), func() bool {
			return c.Backends()[owner].State == st && c.Owner(digest) == wantOwner
		})
	}

	if got := route(); got != (Route{Backend: owner, Owner: owner, Affinity: "owner"}) {
		t.Fatalf("all healthy: route %+v, want owner %s", got, owner)
	}

	health[idx].Store(http.StatusInternalServerError)
	settle(StateDown, succ)
	if got := route(); got != (Route{Backend: succ, Owner: succ, Affinity: "owner"}) {
		t.Fatalf("owner down: route %+v, want successor %s as owner", got, succ)
	}
	if got := sample(t, c, "pdfd_cluster_ring_nodes"); got != "2" {
		t.Fatalf("ring nodes with one backend down = %s, want 2", got)
	}

	health[idx].Store(http.StatusOK)
	settle(StateHealthy, owner)
	if got := sample(t, c, "pdfd_cluster_ring_nodes"); got != "3" {
		t.Fatalf("ring nodes after recovery = %s, want 3", got)
	}

	health[idx].Store(http.StatusServiceUnavailable)
	settle(StateDraining, owner)
	if got := route(); got != (Route{Backend: succ, Owner: owner, Affinity: "failover"}) {
		t.Fatalf("owner draining: route %+v, want failover to %s", got, succ)
	}
	if got := sample(t, c, "pdfd_cluster_ring_nodes"); got != "3" {
		t.Fatalf("ring nodes with one backend draining = %s, want 3", got)
	}
}

// Tenant names a client invents get no per-tenant routing row: 200
// submissions under distinct anonymous names leave only the rows of
// the default tenant and the roster's, while every one counts in
// jobs_routed_total.
func TestClusterInventedTenantsLeaveNoRow(t *testing.T) {
	const n = 200
	bsrv := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		engine.WriteJSON(w, http.StatusAccepted, engine.JobView{ID: "b0/j1", Status: engine.StatusQueued})
	})
	c, srv := coordinatorOver(t, bsrv.URL, Config{Tenants: []engine.TenantConfig{{Name: "gold"}}})
	submitVia(t, srv.URL, enrichSpec(1))
	gold := enrichSpec(1)
	gold.Tenant = "gold"
	submitVia(t, srv.URL, gold)
	for i := 0; i < n; i++ {
		spec := enrichSpec(1)
		spec.Tenant = fmt.Sprintf("anon-%d", i)
		submitVia(t, srv.URL, spec)
	}
	var buf bytes.Buffer
	if err := c.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "pdfd_cluster_tenant_routed_total{") {
			rows = append(rows, line)
		}
	}
	want := []string{
		`pdfd_cluster_tenant_routed_total{tenant="default",affinity="owner"} 1`,
		`pdfd_cluster_tenant_routed_total{tenant="gold",affinity="owner"} 1`,
	}
	if strings.Join(rows, "\n") != strings.Join(want, "\n") {
		t.Errorf("tenant routing rows = %q, want %q", rows, want)
	}
	if got, want := sample(t, c, `pdfd_cluster_jobs_routed_total{backend="b0",affinity="owner"}`), fmt.Sprint(n+2); got != want {
		t.Errorf("jobs routed = %s, want %s", got, want)
	}
}
