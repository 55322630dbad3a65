package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func newTestServer(t *testing.T) (*Engine, *httptest.Server) {
	t.Helper()
	e := New(Config{Workers: 2})
	srv := httptest.NewServer(NewServer(e))
	t.Cleanup(func() {
		srv.Close()
		e.Close()
	})
	return e, srv
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp, readBody(t, resp)
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("bad JSON from %s: %v\n%s", url, err, body)
		}
	}
	return resp
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// submitWait submits a spec and blocks until the job is terminal.
func submitWait(t *testing.T, base string, spec map[string]any) JobView {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/jobs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs = %d: %s", resp.StatusCode, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for !v.Status.Terminal() {
		getJSON(t, base+"/v1/jobs/"+v.ID+"?wait=2s", &v)
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", v.ID, v.Status)
		}
	}
	return v
}

// The acceptance flow: submit an enrichment job over HTTP, poll it,
// fetch the result, resubmit and get the cached answer.
func TestServerEnrichmentEndToEnd(t *testing.T) {
	_, srv := newTestServer(t)

	done := submitWait(t, srv.URL, map[string]any{
		"kind": "enrich", "circuit": "s27", "np0": 10, "seed": 1,
	})
	if done.Status != StatusDone {
		t.Fatalf("job %s: %s", done.Status, done.Error)
	}
	r := done.Result
	if r == nil || r.TestCount == 0 || r.P0Detected == 0 || r.AllTotal == 0 {
		t.Fatalf("implausible result over HTTP: %+v", r)
	}
	for _, line := range r.Tests {
		if !strings.Contains(line, "->") {
			t.Fatalf("malformed test line %q", line)
		}
	}

	// Identical resubmission: answered from cache, visible in metrics.
	again := submitWait(t, srv.URL, map[string]any{
		"kind": "enrich", "circuit": "s27", "np0": 10, "seed": 1,
	})
	if again.Status != StatusDone || !again.CacheHit {
		t.Fatalf("resubmission: status %s cache_hit %t", again.Status, again.CacheHit)
	}
	resp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	samples, _ := parsePromText(t, string(readBody(t, resp)))
	if v := promValue(samples, "pdfd_cache_hits_total", ""); v < 1 {
		t.Errorf("pdfd_cache_hits_total = %v, want >= 1", v)
	}
	if v := promValue(samples, "pdfd_jobs_done_total", ""); v < 2 {
		t.Errorf("pdfd_jobs_done_total = %v, want >= 2", v)
	}
	// Only the first job prepared and reached generation; the hit
	// skipped both.
	for stage, want := range map[string]float64{"prepare": 1, "generation": 1} {
		if v := promValue(samples, "pdfd_stage_duration_seconds_count", `stage="`+stage+`"`); v != want {
			t.Errorf("pdfd_stage_duration_seconds_count{stage=%q} = %v, want %v", stage, v, want)
		}
	}
}

// A cache hit is looked up before prepare: the resubmission's trace
// holds the load and the lookup but no prepare span or its children,
// and the prepare stage histogram does not grow.
func TestServerCacheHitSkipsPrepare(t *testing.T) {
	_, srv := newTestServer(t)
	spec := map[string]any{"kind": "enrich", "circuit": "s27", "np0": 10, "seed": 1}
	prepares := func() float64 {
		resp, err := http.Get(srv.URL + "/v1/metrics")
		if err != nil {
			t.Fatal(err)
		}
		samples, _ := parsePromText(t, string(readBody(t, resp)))
		return promValue(samples, "pdfd_stage_duration_seconds_count", `stage="prepare"`)
	}
	traceSpans := func(id string) []obs.SpanView {
		var tr struct {
			Trace obs.TraceView `json:"trace"`
		}
		getJSON(t, srv.URL+"/v1/jobs/"+id+"/trace", &tr)
		return tr.Trace.Spans
	}

	first := submitWait(t, srv.URL, spec)
	if first.Status != StatusDone || first.CacheHit {
		t.Fatalf("first run: status %s cache_hit %t", first.Status, first.CacheHit)
	}
	// On a miss the lookup precedes prepare.
	var order []string
	for _, s := range traceSpans(first.ID) {
		switch s.Name {
		case "load", "cache_lookup", "prepare":
			order = append(order, s.Name)
		}
	}
	if want := []string{"load", "cache_lookup", "prepare"}; !slices.Equal(order, want) {
		t.Errorf("miss timeline order = %v, want %v", order, want)
	}
	before := prepares()

	again := submitWait(t, srv.URL, spec)
	if again.Status != StatusDone || !again.CacheHit {
		t.Fatalf("resubmission: status %s cache_hit %t", again.Status, again.CacheHit)
	}
	if after := prepares(); after != before {
		t.Errorf("prepare stage count went %v -> %v on a cache hit", before, after)
	}
	spans := traceSpans(again.ID)
	seen := map[string]obs.SpanView{}
	for _, s := range spans {
		seen[s.Name] = s
	}
	for _, name := range []string{"prepare", "pathenum", "screen", "partition", "generation"} {
		if _, ok := seen[name]; ok {
			t.Errorf("cache hit ran %q: timeline %v", name, names(spans))
		}
	}
	if _, ok := seen["load"]; !ok {
		t.Errorf("no load span on the hit: %v", names(spans))
	}
	if l, ok := seen["cache_lookup"]; !ok || l.Attrs["hit"] != "true" {
		t.Errorf("cache_lookup span = %+v, want hit=true", l)
	}
}

// promValue returns the value of the series name{labels} in samples
// parsed by parsePromText, or -1 when it is absent.
func promValue(samples map[string][]promSeries, name, labels string) float64 {
	for _, s := range samples[name] {
		if s.labels == labels {
			return s.value
		}
	}
	return -1
}

func TestServerHealthAndListing(t *testing.T) {
	_, srv := newTestServer(t)
	var health map[string]any
	resp := getJSON(t, srv.URL+"/v1/healthz", &health)
	if resp.StatusCode != http.StatusOK || health["status"] != "ok" {
		t.Errorf("healthz: %d %v", resp.StatusCode, health)
	}
	v := submitWait(t, srv.URL, map[string]any{
		"kind": "generate", "circuit": "s27", "np0": 10,
	})
	var page JobListPage
	getJSON(t, srv.URL+"/v1/jobs", &page)
	if len(page.Jobs) != 1 || page.Jobs[0].ID != v.ID {
		t.Errorf("GET /v1/jobs listed %+v", page.Jobs)
	}
	if page.NextPageToken != "" {
		t.Errorf("single-page listing has next_page_token %q", page.NextPageToken)
	}
}

func TestServerCancelJob(t *testing.T) {
	_, srv := newTestServer(t)
	_, body := postJSON(t, srv.URL+"/v1/jobs", map[string]any{
		"kind": "enrich", "circuit": "s1423", "np": 2000, "np0": 300, "seed": 1,
	})
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+v.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b := readBody(t, dresp)
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d: %s", dresp.StatusCode, b)
	}
	getJSON(t, fmt.Sprintf("%s/v1/jobs/%s?wait=5s", srv.URL, v.ID), &v)
	if v.Status != StatusCanceled {
		t.Errorf("status after cancel = %s", v.Status)
	}
}

// Every error response carries the unified envelope with a stable
// machine-readable code, on both the /v1 and legacy routes.
func TestServerErrorEnvelope(t *testing.T) {
	_, srv := newTestServer(t)

	do := func(method, path string, body any) (*http.Response, []byte) {
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
		req, err := http.NewRequest(method, srv.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp, readBody(t, resp)
	}

	cases := []struct {
		name       string
		method     string
		path       string
		body       any
		wantStatus int
		wantCode   string
		wantInMsg  string
	}{
		{"bad kind", http.MethodPost, "/v1/jobs",
			map[string]any{"kind": "explode", "circuit": "s27"},
			http.StatusBadRequest, CodeInvalidSpec, ""},
		{"unknown field", http.MethodPost, "/v1/jobs",
			map[string]any{"kind": "generate", "circuit": "s27", "bogus": 1},
			http.StatusBadRequest, CodeInvalidSpec, `unknown field "bogus"`},
		{"removed workers field", http.MethodPost, "/v1/jobs",
			map[string]any{"kind": "generate", "circuit": "s27", "workers": 4},
			http.StatusBadRequest, CodeInvalidSpec, `unknown field "workers"`},
		{"unknown job", http.MethodGet, "/v1/jobs/j999", nil,
			http.StatusNotFound, CodeNotFound, "j999"},
		{"unknown job trace", http.MethodGet, "/v1/jobs/j999/trace", nil,
			http.StatusNotFound, CodeNotFound, "j999"},
		{"cancel unknown job", http.MethodDelete, "/v1/jobs/j999", nil,
			http.StatusNotFound, CodeNotFound, "j999"},
		{"bad wait", http.MethodGet, "/v1/jobs/j999x?wait=never", nil,
			http.StatusNotFound, CodeNotFound, ""}, // unknown id wins over bad wait
		{"bad status filter", http.MethodGet, "/v1/jobs?status=exploded", nil,
			http.StatusBadRequest, CodeInvalidSpec, "exploded"},
		{"bad kind filter", http.MethodGet, "/v1/jobs?kind=exploded", nil,
			http.StatusBadRequest, CodeInvalidSpec, "exploded"},
		{"bad limit", http.MethodGet, "/v1/jobs?limit=-3", nil,
			http.StatusBadRequest, CodeInvalidSpec, "limit"},
		{"bad page token", http.MethodGet, "/v1/jobs?page_token=zzz", nil,
			http.StatusBadRequest, CodeInvalidSpec, "page_token"},
		{"bad trace outcome", http.MethodGet, "/v1/traces?outcome=slow", nil,
			http.StatusBadRequest, CodeInvalidSpec, `unknown outcome "slow"`},
	}
	for _, c := range cases {
		resp, body := do(c.method, c.path, c.body)
		if resp.StatusCode != c.wantStatus {
			t.Errorf("%s: status %d, want %d (%s)", c.name, resp.StatusCode, c.wantStatus, body)
			continue
		}
		var env errorEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			t.Errorf("%s: body is not the error envelope: %s", c.name, body)
			continue
		}
		if env.Error.Code != c.wantCode {
			t.Errorf("%s: code %q, want %q", c.name, env.Error.Code, c.wantCode)
		}
		if env.Error.Message == "" {
			t.Errorf("%s: empty error message", c.name)
		}
		if c.wantInMsg != "" && !strings.Contains(env.Error.Message, c.wantInMsg) {
			t.Errorf("%s: message %q does not mention %q", c.name, env.Error.Message, c.wantInMsg)
		}
	}

	// A bad wait on an existing job is invalid_spec.
	v := submitWait(t, srv.URL, map[string]any{"kind": "generate", "circuit": "s27", "np0": 10})
	resp, body := do(http.MethodGet, "/v1/jobs/"+v.ID+"?wait=never", nil)
	var env errorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("bad wait body: %s", body)
	}
	if resp.StatusCode != http.StatusBadRequest || env.Error.Code != CodeInvalidSpec {
		t.Errorf("bad wait = %d/%q, want 400/%q", resp.StatusCode, env.Error.Code, CodeInvalidSpec)
	}
}

// A shed submission returns the overloaded envelope with a retry hint;
// a closed engine returns engine_closed.
func TestServerOverloadedAndClosed(t *testing.T) {
	e := New(Config{Workers: 1, QueueDepth: 4, ShedWatermark: 1})
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()
	defer e.Close()

	// Occupy the worker with a slow job, then flood the queue until
	// the watermark sheds a submission.
	slow := map[string]any{"kind": "enrich", "circuit": "s1423", "np": 2000, "np0": 300, "seed": 1}
	var sawOverloaded bool
	for i := 0; i < 8 && !sawOverloaded; i++ {
		spec := map[string]any{"kind": "enrich", "circuit": "s1423", "np": 2000, "np0": 300, "seed": i}
		if i == 0 {
			spec = slow
		}
		resp, body := postJSON(t, srv.URL+"/v1/jobs", spec)
		if resp.StatusCode == http.StatusServiceUnavailable {
			var env errorEnvelope
			if err := json.Unmarshal(body, &env); err != nil {
				t.Fatalf("503 body not an envelope: %s", body)
			}
			if env.Error.Code != CodeOverloaded {
				t.Fatalf("503 code %q, want %q", env.Error.Code, CodeOverloaded)
			}
			if env.Error.RetryAfterMS <= 0 {
				t.Errorf("overloaded envelope has retry_after_ms %d, want > 0", env.Error.RetryAfterMS)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Errorf("overloaded response missing Retry-After header")
			}
			sawOverloaded = true
		}
	}
	if !sawOverloaded {
		t.Fatalf("never saw a 503 overloaded across the flood")
	}

	e2 := New(Config{Workers: 1})
	srv2 := httptest.NewServer(NewServer(e2))
	defer srv2.Close()
	e2.Close()
	resp, body := postJSON(t, srv2.URL+"/v1/jobs", map[string]any{"kind": "generate", "circuit": "s27", "np0": 10})
	var env errorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("closed body not an envelope: %s", body)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || env.Error.Code != CodeEngineClosed {
		t.Errorf("closed engine = %d/%q, want 503/%q", resp.StatusCode, env.Error.Code, CodeEngineClosed)
	}
}

// /v1/jobs pages stably through a listing with keyset tokens and
// applies status and kind filters.
func TestServerJobListPagination(t *testing.T) {
	_, srv := newTestServer(t)

	var want []string
	for i := 0; i < 5; i++ {
		v := submitWait(t, srv.URL, map[string]any{
			"kind": "generate", "circuit": "s27", "np0": 10, "seed": i + 1,
		})
		want = append(want, v.ID)
	}

	// Walk the listing two jobs at a time.
	var got []string
	url := srv.URL + "/v1/jobs?limit=2"
	for pages := 0; ; pages++ {
		if pages > 5 {
			t.Fatalf("pagination did not terminate: %v", got)
		}
		var page JobListPage
		getJSON(t, url, &page)
		if len(page.Jobs) > 2 {
			t.Fatalf("page of %d jobs, limit 2", len(page.Jobs))
		}
		for _, v := range page.Jobs {
			got = append(got, v.ID)
		}
		if page.NextPageToken == "" {
			break
		}
		url = srv.URL + "/v1/jobs?limit=2&page_token=" + page.NextPageToken
	}
	if !sort.StringsAreSorted(want) {
		// Job IDs are j1, j2... — submission order is lexicographic
		// here only because n < 10; compare as sequences regardless.
		t.Logf("want order: %v", want)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("paged listing %v, want %v (submission order)", got, want)
	}

	// Filters: everything is done, nothing is running.
	var page JobListPage
	getJSON(t, srv.URL+"/v1/jobs?status=done", &page)
	if len(page.Jobs) != 5 {
		t.Errorf("status=done listed %d jobs, want 5", len(page.Jobs))
	}
	getJSON(t, srv.URL+"/v1/jobs?status=running", &page)
	if len(page.Jobs) != 0 {
		t.Errorf("status=running listed %d jobs, want 0", len(page.Jobs))
	}
	getJSON(t, srv.URL+"/v1/jobs?kind=enrich", &page)
	if len(page.Jobs) != 0 {
		t.Errorf("kind=enrich listed %d jobs, want 0", len(page.Jobs))
	}
	getJSON(t, srv.URL+"/v1/jobs?kind=generate&limit=3", &page)
	if len(page.Jobs) != 3 || page.NextPageToken == "" {
		t.Errorf("kind=generate&limit=3: %d jobs, token %q", len(page.Jobs), page.NextPageToken)
	}
}

// promSeries is one parsed exposition sample: name, sorted label
// string, value.
type promSeries struct {
	labels string
	value  float64
}

// parsePromText is a strict hand-rolled parser for the Prometheus text
// exposition format v0.0.4, returning samples per metric name and the
// TYPE declarations. It fails the test on any malformed line.
func parsePromText(t *testing.T, text string) (map[string][]promSeries, map[string]string) {
	t.Helper()
	samples := make(map[string][]promSeries)
	types := make(map[string]string)
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			switch f[3] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: unknown TYPE %q", ln+1, f[3])
			}
			types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // HELP or comment
		}
		// name{label="v",...} value  |  name value
		rest := line
		name := rest
		labels := ""
		if i := strings.IndexByte(rest, '{'); i >= 0 {
			name = rest[:i]
			j := strings.LastIndexByte(rest, '}')
			if j < i {
				t.Fatalf("line %d: unbalanced braces: %q", ln+1, line)
			}
			labels = rest[i+1 : j]
			rest = rest[j+1:]
		} else {
			k := strings.IndexByte(rest, ' ')
			if k < 0 {
				t.Fatalf("line %d: no value: %q", ln+1, line)
			}
			name = rest[:k]
			rest = rest[k:]
		}
		valStr := strings.TrimSpace(rest)
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil && valStr != "+Inf" && valStr != "-Inf" && valStr != "NaN" {
			t.Fatalf("line %d: bad value %q: %v", ln+1, valStr, err)
		}
		if name == "" {
			t.Fatalf("line %d: empty metric name: %q", ln+1, line)
		}
		samples[name] = append(samples[name], promSeries{labels: labels, value: val})
	}
	return samples, types
}

// /v1/metrics serves parseable Prometheus text with coherent histogram
// series.
func TestServerPrometheusExposition(t *testing.T) {
	_, srv := newTestServer(t)
	submitWait(t, srv.URL, map[string]any{"kind": "enrich", "circuit": "s27", "np0": 10, "seed": 1})

	resp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q, want text/plain version=0.0.4", ct)
	}
	samples, types := parsePromText(t, string(body))

	// The lifecycle counters exist and reflect the finished job.
	for _, name := range []string{
		"pdfd_jobs_submitted_total", "pdfd_jobs_done_total", "pdfd_jobs_failed_total",
		"pdfd_jobs_shed_total", "pdfd_job_panics_total", "pdfd_journal_appends_total",
	} {
		if types[name] != "counter" {
			t.Errorf("%s: TYPE %q, want counter", name, types[name])
		}
		if len(samples[name]) != 1 {
			t.Errorf("%s: %d samples, want 1", name, len(samples[name]))
		}
	}
	if v := samples["pdfd_jobs_done_total"][0].value; v < 1 {
		t.Errorf("pdfd_jobs_done_total = %v, want >= 1", v)
	}
	for _, name := range []string{"pdfd_jobs_running", "pdfd_queue_depth", "pdfd_overloaded"} {
		if types[name] != "gauge" {
			t.Errorf("%s: TYPE %q, want gauge", name, types[name])
		}
	}

	// Histogram coherence: cumulative buckets ending at +Inf == count,
	// for every histogram family in the exposition.
	var histograms int
	for name, typ := range types {
		if typ != "histogram" {
			continue
		}
		histograms++
		buckets := samples[name+"_bucket"]
		counts := samples[name+"_count"]
		sums := samples[name+"_sum"]
		if len(buckets) == 0 || len(counts) == 0 || len(sums) != len(counts) {
			t.Errorf("%s: incomplete histogram series (%d buckets, %d counts, %d sums)",
				name, len(buckets), len(counts), len(sums))
			continue
		}
		// Group buckets by their non-le labels.
		byGroup := make(map[string][]promSeries)
		for _, s := range buckets {
			var rest []string
			le := ""
			for _, l := range strings.Split(s.labels, ",") {
				if strings.HasPrefix(l, `le="`) {
					le = strings.TrimSuffix(strings.TrimPrefix(l, `le="`), `"`)
				} else if l != "" {
					rest = append(rest, l)
				}
			}
			if le == "" {
				t.Errorf("%s: bucket sample without le label: %q", name, s.labels)
				continue
			}
			key := strings.Join(rest, ",")
			byGroup[key] = append(byGroup[key], promSeries{labels: le, value: s.value})
		}
		for key, bs := range byGroup {
			prev := -1.0
			sawInf := false
			for _, b := range bs {
				if b.value < prev {
					t.Errorf("%s{%s}: non-cumulative buckets", name, key)
				}
				prev = b.value
				if b.labels == "+Inf" {
					sawInf = true
					// +Inf bucket must equal the matching _count.
					for _, c := range counts {
						if c.labels == key && c.value != b.value {
							t.Errorf("%s{%s}: +Inf bucket %v != count %v", name, key, b.value, c.value)
						}
					}
				}
			}
			if !sawInf {
				t.Errorf("%s{%s}: no +Inf bucket", name, key)
			}
		}
	}
	if histograms < 1 {
		t.Errorf("exposition has %d histograms, want >= 1", histograms)
	}
	if len(samples["pdfd_stage_duration_seconds_bucket"]) == 0 {
		t.Errorf("no pdfd_stage_duration_seconds buckets after a finished job")
	}

	// The per-tenant scheduler families are exposed.
	if types["pdfd_tenant_queued"] != "gauge" || types["pdfd_tenant_running"] != "gauge" {
		t.Errorf("pdfd_tenant_queued/running TYPEs = %q/%q, want gauges",
			types["pdfd_tenant_queued"], types["pdfd_tenant_running"])
	}
	if types["pdfd_tenant_shed_total"] != "counter" {
		t.Errorf("pdfd_tenant_shed_total TYPE = %q, want counter", types["pdfd_tenant_shed_total"])
	}
	if len(samples["pdfd_tenant_queue_wait_seconds_bucket"]) == 0 {
		t.Errorf("no pdfd_tenant_queue_wait_seconds buckets after a finished job")
	}
}

// A compacted c17 enrichment job yields a span timeline covering the
// whole pipeline — pathenum, generation, compaction, simulation — with
// every span correctly nested under an earlier parent.
func TestServerJobTraceSpans(t *testing.T) {
	_, srv := newTestServer(t)
	v := submitWait(t, srv.URL, map[string]any{
		"kind": "enrich", "circuit": "c17", "np0": 4, "seed": 1, "collapse": true,
	})
	if v.Status != StatusDone {
		t.Fatalf("job %s: %s", v.Status, v.Error)
	}

	var tr struct {
		JobID string        `json:"job_id"`
		Trace obs.TraceView `json:"trace"`
	}
	getJSON(t, srv.URL+"/v1/jobs/"+v.ID+"/trace", &tr)
	if tr.JobID != v.ID {
		t.Fatalf("trace for %q, want %q", tr.JobID, v.ID)
	}
	spans := tr.Trace.Spans
	if len(spans) == 0 {
		t.Fatal("empty span timeline")
	}

	// Nesting: the first span is the root "job"; every other span's
	// parent is an earlier span's id (parents precede children).
	if spans[0].Name != "job" || spans[0].Parent != 0 {
		t.Fatalf("first span = %q (parent %d), want root \"job\"", spans[0].Name, spans[0].Parent)
	}
	ids := map[int]bool{spans[0].ID: true}
	byName := map[string][]obs.SpanView{}
	for i, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
		if i == 0 {
			continue
		}
		if !ids[s.Parent] {
			t.Errorf("span %d %q: parent %d not an earlier span", s.ID, s.Name, s.Parent)
		}
		ids[s.ID] = true
		if s.StartMS < spans[0].StartMS {
			t.Errorf("span %q starts before the root", s.Name)
		}
		if s.DurMS < 0 && s.DurMS != -1 {
			t.Errorf("span %q has duration %v", s.Name, s.DurMS)
		}
	}

	// The acceptance stage names, all present.
	for _, name := range []string{
		"queued", "attempt", "prepare", "pathenum", "screen", "partition",
		"collapse", "generation", "compaction", "simulation",
	} {
		if len(byName[name]) == 0 {
			t.Errorf("no %q span in timeline %v", name, names(spans))
		}
	}

	// Structural spot checks: prepare is a child of attempt, pathenum
	// a child of prepare, compaction children of generation.
	attempt := byName["attempt"][0]
	if p := byName["prepare"][0]; p.Parent != attempt.ID {
		t.Errorf("prepare parent %d, want attempt %d", p.Parent, attempt.ID)
	}
	if pe := byName["pathenum"][0]; pe.Parent != byName["prepare"][0].ID {
		t.Errorf("pathenum parent %d, want prepare %d", pe.Parent, byName["prepare"][0].ID)
	}
	genIDs := map[int]bool{}
	for _, g := range byName["generation"] {
		genIDs[g.ID] = true
	}
	for _, cpt := range byName["compaction"] {
		if !genIDs[cpt.Parent] {
			t.Errorf("compaction span parent %d is not a generation span", cpt.Parent)
		}
		if cpt.Attrs["heuristic"] == "" {
			t.Errorf("compaction span missing heuristic attr: %v", cpt.Attrs)
		}
	}

	// Every recorded span ended (the job is terminal).
	for _, s := range spans {
		if s.DurMS == -1 || math.IsNaN(s.DurMS) {
			t.Errorf("span %q never ended", s.Name)
		}
	}

	// The full job view embeds the same timeline.
	var full JobView
	getJSON(t, srv.URL+"/v1/jobs/"+v.ID, &full)
	if full.Trace == nil || len(full.Trace.Spans) != len(spans) {
		t.Errorf("JobView trace has %d spans, want %d", lenTrace(full.Trace), len(spans))
	}
}

func names(spans []obs.SpanView) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name
	}
	return out
}

func lenTrace(t *obs.TraceView) int {
	if t == nil {
		return 0
	}
	return len(t.Spans)
}

// Every response — success or error — is JSON with the right content
// type (except the Prometheus exposition), so clients never sniff.
func TestServerJSONContentType(t *testing.T) {
	_, srv := newTestServer(t)
	checks := []struct {
		name string
		do   func() *http.Response
		want int
	}{
		{"submit accepted", func() *http.Response {
			resp, _ := postJSON(t, srv.URL+"/v1/jobs", map[string]any{"kind": "generate", "circuit": "s27", "np0": 10})
			return resp
		}, http.StatusAccepted},
		{"bad spec", func() *http.Response {
			resp, _ := postJSON(t, srv.URL+"/v1/jobs", map[string]any{"kind": "explode"})
			return resp
		}, http.StatusBadRequest},
		{"unknown job", func() *http.Response {
			return getJSON(t, srv.URL+"/v1/jobs/j999", nil)
		}, http.StatusNotFound},
		{"healthz", func() *http.Response {
			return getJSON(t, srv.URL+"/v1/healthz", nil)
		}, http.StatusOK},
		{"version", func() *http.Response {
			return getJSON(t, srv.URL+"/v1/version", nil)
		}, http.StatusOK},
	}
	for _, c := range checks {
		resp := c.do()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.want)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: content type %q, want application/json", c.name, ct)
		}
	}
}

// /v1/metrics exposes the resilience counters.
func TestServerMetricsResilienceFields(t *testing.T) {
	_, srv := newTestServer(t)
	resp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	samples, _ := parsePromText(t, string(readBody(t, resp)))
	for _, name := range []string{
		"pdfd_jobs_retried_total", "pdfd_jobs_shed_total", "pdfd_job_panics_total",
		"pdfd_queue_depth", "pdfd_overloaded", "pdfd_journal_appends_total",
		"pdfd_journal_errors_total", "pdfd_journal_compactions_total",
	} {
		if len(samples[name]) != 1 {
			t.Errorf("/v1/metrics has %d %s samples, want 1", len(samples[name]), name)
		}
	}
}

// Responses echo the caller's X-Request-ID (or mint one), correlating
// access logs with client-side records.
func TestServerRequestIDEcho(t *testing.T) {
	_, srv := newTestServer(t)
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/healthz", nil)
	req.Header.Set("X-Request-ID", "req-abc123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if got := resp.Header.Get("X-Request-ID"); got != "req-abc123" {
		t.Errorf("echoed request id %q, want req-abc123", got)
	}
	resp2 := getJSON(t, srv.URL+"/v1/healthz", nil)
	if resp2.Header.Get("X-Request-ID") == "" {
		t.Errorf("no request id minted for anonymous request")
	}
}
