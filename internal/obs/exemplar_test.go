package obs

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestOpenMetricsExemplars(t *testing.T) {
	r := NewRegistry()
	h := NewHistogram("test_seconds", "test histogram", []float64{0.1, 1, 10})
	r.MustRegister(h)

	h.Observe(0.05)
	h.ObserveExemplar(0.5, "4bf92f3577b34da6a3ce929d0e0e4736")

	var om strings.Builder
	if err := r.WriteOpenMetrics(&om); err != nil {
		t.Fatalf("WriteOpenMetrics: %v", err)
	}
	out := om.String()
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Fatalf("OpenMetrics exposition missing # EOF terminator:\n%s", out)
	}
	// The 0.5 observation landed in the le="1" bucket; its row carries
	// the exemplar.
	found := false
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, `test_seconds_bucket{le="1"}`) {
			found = true
			if !strings.Contains(line, `# {trace_id="4bf92f3577b34da6a3ce929d0e0e4736"} 0.5`) {
				t.Fatalf("le=1 bucket row missing exemplar: %q", line)
			}
		}
		if strings.HasPrefix(line, `test_seconds_bucket{le="0.1"}`) && strings.Contains(line, "#") {
			t.Fatalf("bucket without exemplar grew a suffix: %q", line)
		}
	}
	if !found {
		t.Fatalf("no le=1 bucket row in exposition:\n%s", out)
	}

	// The 0.0.4 exposition must stay byte-compatible: no exemplars, no
	// EOF marker ("#" starts a comment there).
	var prom strings.Builder
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	pout := prom.String()
	if strings.Contains(pout, "trace_id") || strings.Contains(pout, "# EOF") {
		t.Fatalf("0.0.4 exposition leaked OpenMetrics syntax:\n%s", pout)
	}
	// Same sample values in both flavors.
	if !strings.Contains(pout, `test_seconds_bucket{le="1"} 2`) {
		t.Fatalf("0.0.4 exposition lost observations:\n%s", pout)
	}
}

func TestObserveExemplarEmptyTraceID(t *testing.T) {
	h := NewHistogram("test_seconds", "test histogram", []float64{1})
	h.ObserveExemplar(0.5, "")

	var om strings.Builder
	if err := h.expose(&om, true); err != nil {
		t.Fatalf("expose: %v", err)
	}
	out := om.String()
	if strings.Contains(out, "trace_id") {
		t.Fatalf("empty trace ID produced an exemplar:\n%s", out)
	}
	if !strings.Contains(out, `test_seconds_bucket{le="1"} 1`) {
		t.Fatalf("observation lost:\n%s", out)
	}
}

func TestHistogramVecExemplars(t *testing.T) {
	r := NewRegistry()
	v := NewHistogramVec("vec_seconds", "labeled histogram", []float64{1}, "outcome")
	r.MustRegister(v)
	v.With("error").ObserveExemplar(0.5, "00f067aa0ba902b700f067aa0ba902b7")

	var om strings.Builder
	if err := r.WriteOpenMetrics(&om); err != nil {
		t.Fatalf("WriteOpenMetrics: %v", err)
	}
	out := om.String()
	if !strings.Contains(out, `vec_seconds_bucket{outcome="error",le="1"} 1 # {trace_id="00f067aa0ba902b700f067aa0ba902b7"} 0.5`) {
		t.Fatalf("labeled bucket missing exemplar:\n%s", out)
	}
}

func TestRegistryServeHTTP(t *testing.T) {
	r := NewRegistry()
	h := NewHistogram("test_seconds", "test histogram", []float64{1})
	r.MustRegister(h)
	h.ObserveExemplar(0.5, "4bf92f3577b34da6a3ce929d0e0e4736")

	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("default Content-Type = %q, want the 0.0.4 text format", ct)
	}
	if body := rec.Body.String(); !strings.Contains(body, `test_seconds_bucket{le="1"} 1`) || strings.Contains(body, "trace_id") {
		t.Errorf("default exposition is not plain 0.0.4 text:\n%s", body)
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text; version=1.0.0")
	rec = httptest.NewRecorder()
	r.ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); ct != OpenMetricsContentType {
		t.Errorf("negotiated Content-Type = %q, want %q", ct, OpenMetricsContentType)
	}
	body := rec.Body.String()
	if !strings.Contains(body, `# {trace_id="4bf92f3577b34da6a3ce929d0e0e4736"} 0.5`) || !strings.HasSuffix(body, "# EOF\n") {
		t.Errorf("OpenMetrics exposition lacks the exemplar or the EOF marker:\n%s", body)
	}
}
