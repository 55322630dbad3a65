package engine_test

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/cluster"
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
