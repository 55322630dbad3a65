package cluster

import (
	"bytes"
	"io"
	"net/http"
	"testing"

	"repro/internal/engine"
)

// A proxied read or cancel answers the backend's own reply, byte for
// byte: the backend renders the routable job ID for the prefix the
// coordinator names in engine.JobPrefixHeader.
func TestClusterRelayCopiesBackendReply(t *testing.T) {
	_, srv, backs := newFleet(t, 1)
	v, _ := submitVia(t, srv.URL, enrichSpec(1))
	if v.ID != "b0/j1" {
		t.Fatalf("submitted job is %q, want b0/j1", v.ID)
	}
	waitVia(t, srv.URL, v.ID)
	for _, rt := range []struct{ method, suffix string }{
		{http.MethodGet, ""},
		{http.MethodGet, "?wait=1s"},
		{http.MethodDelete, ""},
		{http.MethodGet, "/trace"},
	} {
		got := call(t, rt.method, srv.URL+"/v1/jobs/"+v.ID+rt.suffix, nil)
		req, err := http.NewRequest(rt.method, backs[0].srv.URL+"/v1/jobs/j1"+rt.suffix, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(engine.JobPrefixHeader, "b0/")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got.status != resp.StatusCode || !bytes.Equal(got.body, want) {
			t.Errorf("%s %s = %d\n%s\nwant the backend's %d\n%s", rt.method, rt.suffix, got.status, got.body, resp.StatusCode, want)
		}
		if !bytes.Contains(want, []byte(`"b0/j1"`)) {
			t.Errorf("%s %s: the backend's reply does not name b0/j1:\n%s", rt.method, rt.suffix, want)
		}
	}
}
