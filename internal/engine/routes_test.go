package engine_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/durable"
	"repro/internal/engine"
)

// The seed-era unversioned routes and the JSON metrics twin are gone
// from both HTTP planes: they answer 404, not a deprecated alias.
func TestServerDeprecatedAliases(t *testing.T) {
	e := engine.New(engine.Config{Workers: 1})
	pdfd := httptest.NewServer(engine.NewServer(e))
	c, err := cluster.New(cluster.Config{Backends: []cluster.BackendConf{{Name: "b0", URL: pdfd.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	coord := httptest.NewServer(cluster.NewServer(c))
	t.Cleanup(func() {
		coord.Close()
		c.Close()
		pdfd.Close()
		e.Close()
	})

	for _, tc := range []struct {
		plane, base, method, path string
	}{
		{"pdfd", pdfd.URL, http.MethodGet, "/jobs"},
		{"pdfd", pdfd.URL, http.MethodPost, "/jobs"},
		{"pdfd", pdfd.URL, http.MethodGet, "/jobs/j1"},
		{"pdfd", pdfd.URL, http.MethodGet, "/healthz"},
		{"pdfd", pdfd.URL, http.MethodGet, "/metrics"},
		{"pdfd", pdfd.URL, http.MethodGet, "/v1/metrics.json"},
		{"coordinator", coord.URL, http.MethodGet, "/v1/metrics.json"},
	} {
		req, err := http.NewRequest(tc.method, tc.base+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s %s = %d, want 404", tc.plane, tc.method, tc.path, resp.StatusCode)
		}
		if dep := resp.Header.Get("Deprecation"); dep != "" {
			t.Errorf("%s %s %s carries Deprecation %q", tc.plane, tc.method, tc.path, dep)
		}
	}
}

// zeros yields '0' bytes forever: an oversized body streamed without
// holding it in the test.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = '0'
	}
	return len(p), nil
}

// A submission body past the frame bound is refused with 413
// invalid_spec on both planes, as PUT /v1/cache refuses an oversized
// result, instead of being decoded without limit.
func TestSubmitBodyTooLarge(t *testing.T) {
	if raceBuild {
		// The handlers decode on the request goroutine alone, so the
		// detector has nothing to check, and its shadow of the buffers
		// below peaks near 700 MB resident.
		t.Skip("streams 64 MiB bodies; run without -race")
	}
	// Each decoder buffers up to the bound before it gives up; collect
	// eagerly so the test's heap peaks near one body, not three.
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	e := engine.New(engine.Config{Workers: 1})
	c, err := cluster.New(cluster.Config{Backends: []cluster.BackendConf{{Name: "b0", URL: "http://127.0.0.1:1"}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		e.Close()
	})
	spec := `{"kind":"faultsim","circuit":"s27","tests":["`
	for _, tc := range []struct {
		plane  string
		h      http.Handler
		path   string
		prefix string
	}{
		{"pdfd", engine.NewServer(e), "/v1/jobs", spec},
		{"coordinator", cluster.NewServer(c), "/v1/jobs", spec},
		{"coordinator", cluster.NewServer(c), "/v1/jobs:batch", `{"jobs":[` + spec},
	} {
		body := io.MultiReader(strings.NewReader(tc.prefix), io.LimitReader(zeros{}, durable.MaxPayload))
		rec := httptest.NewRecorder()
		tc.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, body))
		var env struct {
			Error engine.APIError `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusRequestEntityTooLarge ||
			env.Error.Code != engine.CodeInvalidSpec {
			t.Errorf("%s POST %s with a %d-byte body = %d %s, want 413 invalid_spec",
				tc.plane, tc.path, durable.MaxPayload+len(tc.prefix), rec.Code, rec.Body.Bytes())
		}
	}
}

// TestDeclaredOversizeBodyRefused checks that every route with a
// capped body answers 413 invalid_spec to a request whose
// Content-Length already exceeds the bound, before it reads a byte.
func TestDeclaredOversizeBodyRefused(t *testing.T) {
	e := engine.New(engine.Config{Workers: 1})
	c, err := cluster.New(cluster.Config{Backends: []cluster.BackendConf{{Name: "b0", URL: "http://127.0.0.1:1"}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		e.Close()
	})
	for _, tc := range []struct {
		plane, method, path string
		h                   http.Handler
	}{
		{"pdfd", http.MethodPost, "/v1/jobs", engine.NewServer(e)},
		{"pdfd", http.MethodPut, "/v1/cache/02/0123456789abcdef/0123456789abcdef", engine.NewServer(e)},
		{"coordinator", http.MethodPost, "/v1/jobs", cluster.NewServer(c)},
		{"coordinator", http.MethodPost, "/v1/jobs:batch", cluster.NewServer(c)},
	} {
		body := &countingReader{r: zeros{}}
		req := httptest.NewRequest(tc.method, tc.path, body)
		req.ContentLength = durable.MaxPayload + 1
		rec := httptest.NewRecorder()
		tc.h.ServeHTTP(rec, req)
		var env struct {
			Error engine.APIError `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusRequestEntityTooLarge ||
			env.Error.Code != engine.CodeInvalidSpec {
			t.Errorf("%s %s %s declaring %d bytes = %d %s, want 413 invalid_spec",
				tc.plane, tc.method, tc.path, req.ContentLength, rec.Code, rec.Body.Bytes())
		}
		if body.n != 0 {
			t.Errorf("%s %s %s read %d body bytes before refusing it", tc.plane, tc.method, tc.path, body.n)
		}
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}
