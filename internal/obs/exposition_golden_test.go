package obs

import (
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// exemplarTS matches the timestamp field of an OpenMetrics exemplar
// suffix (` # {trace_id="..."} value timestamp`), the one
// wall-clock-dependent field of the exposition.
var exemplarTS = regexp.MustCompile(`(# \{trace_id="(?:[^"\\]|\\.)*"\} \S+) \d+\.\d{3}`)

// goldenRegistry builds one registry holding every collector kind the
// package offers, with children inserted out of sort order and label
// values that need escaping.
func goldenRegistry() *Registry {
	r := NewRegistry()

	cv := NewCounterVec("golden_requests_total", "Requests by route and code.", "route", "code")
	cv.With("/v1/jobs", "500").Inc()
	cv.With("/v1/jobs", "200").Add(7)
	cv.With("/v1/healthz", "200").Add(3)
	cv.With(`back\slash "quoted"`+"\nnewline", "200").Inc()

	gv := NewGaugeVec("golden_backend_up", "Backend health by name.", "backend")
	gv.With("b1").Set(0.5)
	gv.With("b0").Set(1)
	gv.With("b2").Set(math.Inf(-1))
	gv.With("b3").Add(-2.25)

	empty := NewCounterVec("golden_empty_total", "A family with no children.", "reason")

	h := NewHistogram("golden_job_seconds", "Job latency.", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.ObserveExemplar(0.5, "4bf92f3577b34da6a3ce929d0e0e4736")
	h.Observe(20)
	h.ObserveExemplar(100, `trace"with\escapes`)

	hv := NewHistogramVec("golden_stage_seconds", "Stage latency.", []float64{0.01, 1}, "stage", "outcome")
	hv.With("simulation", "ok").ObserveExemplar(0.5, "00f067aa0ba902b7")
	hv.With("prepare", "ok").Observe(0.005)
	hv.With("prepare", "ok").ObserveExemplar(2, "a3ce929d0e0e4736")
	hv.With("generation", "error").Observe(0.25)

	r.MustRegister(
		cv, gv, empty,
		NewCounterFunc("golden_func_total", "A counter read at scrape time.", func() float64 { return 42 }),
		NewGaugeFunc("golden_func_ratio", "A gauge read at scrape time.", func() float64 { return 0.125 }),
		h, hv,
	)
	RegisterBuildInfo(r)
	return r
}

// TestExpositionGolden pins every byte WritePrometheus and
// WriteOpenMetrics produce for goldenRegistry. Only the exemplar
// timestamps and the build-info label values (the toolchain's) are
// replaced by placeholders.
func TestExpositionGolden(t *testing.T) {
	v := Version()
	normalize := func(s string) string {
		s = exemplarTS.ReplaceAllString(s, "$1 TIMESTAMP")
		s = strings.ReplaceAll(s, `go_version="`+escapeLabel(v.GoVersion)+`"`, `go_version="GO_VERSION"`)
		return strings.ReplaceAll(s, `version="`+escapeLabel(v.Version)+`",`, `version="VERSION",`)
	}
	for _, tc := range []struct {
		file  string
		write func(*Registry, *strings.Builder) error
	}{
		{"exposition.prom", func(r *Registry, b *strings.Builder) error { return r.WritePrometheus(b) }},
		{"exposition.om", func(r *Registry, b *strings.Builder) error { return r.WriteOpenMetrics(b) }},
	} {
		var b strings.Builder
		if err := tc.write(goldenRegistry(), &b); err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		checkGolden(t, filepath.Join("testdata", tc.file), normalize(b.String()))
	}
}

func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the golden:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
