package obs

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// promSample is one parsed exposition line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

var sampleRE = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)
var labelRE = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"`)

// parseProm is a hand-rolled Prometheus text-format parser good enough
// to validate our own exposition: it checks the HELP/TYPE framing and
// returns every sample. The engine's server tests carry their own
// stricter copy (this one is unexported on purpose).
func parseProm(t *testing.T, text string) []promSample {
	t.Helper()
	var samples []promSample
	typed := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 {
				t.Fatalf("malformed comment line: %q", line)
			}
			if parts[1] == "TYPE" {
				switch parts[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					t.Fatalf("bad metric type in %q", line)
				}
				typed[parts[2]] = parts[3]
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unexpected comment: %q", line)
		}
		m := sampleRE.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line: %q", line)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil && m[3] != "+Inf" && m[3] != "-Inf" && m[3] != "NaN" {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		labels := map[string]string{}
		if m[2] != "" {
			for _, lm := range labelRE.FindAllStringSubmatch(m[2], -1) {
				labels[lm[1]] = lm[2]
			}
		}
		base := m[1]
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if b := strings.TrimSuffix(m[1], suffix); b != m[1] && typed[b] == "histogram" {
				base = b
			}
		}
		if _, ok := typed[base]; !ok {
			t.Fatalf("sample %q has no preceding # TYPE", line)
		}
		samples = append(samples, promSample{name: m[1], labels: labels, value: v})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples
}

func find(samples []promSample, name string, labels map[string]string) (promSample, bool) {
	for _, s := range samples {
		if s.name != name {
			continue
		}
		ok := true
		for k, v := range labels {
			if s.labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			return s, true
		}
	}
	return promSample{}, false
}

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	jobs := int64(3)
	r.MustRegister(
		NewCounterFunc("t_jobs_total", "Jobs.", func() float64 { return float64(jobs) }),
		NewGaugeFunc("t_depth", "Depth.", func() float64 { return 7 }),
	)
	cv := NewCounterVec("t_http_requests_total", "Reqs.", "route", "code")
	cv.With("jobs", "200").Add(5)
	cv.With("jobs", "503").Inc()
	h := NewHistogram("t_stage_seconds", "Stage latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	r.MustRegister(cv, h)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples := parseProm(t, b.String())

	if s, ok := find(samples, "t_jobs_total", nil); !ok || s.value != 3 {
		t.Errorf("t_jobs_total = %+v (found %t)", s, ok)
	}
	if s, ok := find(samples, "t_depth", nil); !ok || s.value != 7 {
		t.Errorf("t_depth = %+v", s)
	}
	if s, ok := find(samples, "t_http_requests_total", map[string]string{"route": "jobs", "code": "200"}); !ok || s.value != 5 {
		t.Errorf("countervec 200 = %+v", s)
	}
	if s, ok := find(samples, "t_http_requests_total", map[string]string{"route": "jobs", "code": "503"}); !ok || s.value != 1 {
		t.Errorf("countervec 503 = %+v", s)
	}

	// Histogram: buckets cumulative and monotone, +Inf == count.
	wantBuckets := map[string]float64{"0.1": 1, "1": 3, "10": 4, "+Inf": 5}
	for le, want := range wantBuckets {
		s, ok := find(samples, "t_stage_seconds_bucket", map[string]string{"le": le})
		if !ok || s.value != want {
			t.Errorf("bucket le=%s = %+v, want %v", le, s, want)
		}
	}
	if s, ok := find(samples, "t_stage_seconds_count", nil); !ok || s.value != 5 {
		t.Errorf("hist count = %+v", s)
	}
	if s, ok := find(samples, "t_stage_seconds_sum", nil); !ok || s.value != 56.05 {
		t.Errorf("hist sum = %+v", s)
	}
}

func TestHistogramVecExposition(t *testing.T) {
	r := NewRegistry()
	hv := NewHistogramVec("t_lat_seconds", "Latency.", []float64{1}, "stage")
	hv.With("prepare").Observe(0.5)
	hv.With("generate").Observe(2)
	r.MustRegister(hv)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples := parseProm(t, b.String())
	if s, ok := find(samples, "t_lat_seconds_bucket", map[string]string{"stage": "prepare", "le": "1"}); !ok || s.value != 1 {
		t.Errorf("prepare le=1 = %+v", s)
	}
	if s, ok := find(samples, "t_lat_seconds_bucket", map[string]string{"stage": "generate", "le": "1"}); !ok || s.value != 0 {
		t.Errorf("generate le=1 = %+v", s)
	}
	if s, ok := find(samples, "t_lat_seconds_count", map[string]string{"stage": "generate"}); !ok || s.value != 1 {
		t.Errorf("generate count = %+v", s)
	}
	// One TYPE header for the whole family, before any sample.
	text := b.String()
	if strings.Count(text, "# TYPE t_lat_seconds histogram") != 1 {
		t.Errorf("family header repeated:\n%s", text)
	}
}

// DeleteFirst drops every row whose first label value matches, and
// only those; a child made again afterwards starts from zero.
func TestVecDeleteFirst(t *testing.T) {
	cv := NewCounterVec("t_shed_total", "Shed.", "tenant", "reason")
	cv.With("a", "quota").Add(2)
	cv.With("a", "overloaded").Inc()
	cv.With("b", "quota").Inc()
	cv.With("ab", "quota").Inc()
	cv.DeleteFirst("a")
	scrape := func() string {
		var b strings.Builder
		if err := cv.expose(&b, false); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	const head = "# HELP t_shed_total Shed.\n# TYPE t_shed_total counter\n"
	if got, want := scrape(), head+
		`t_shed_total{tenant="ab",reason="quota"} 1`+"\n"+
		`t_shed_total{tenant="b",reason="quota"} 1`+"\n"; got != want {
		t.Errorf("after DeleteFirst(a):\n%s\nwant\n%s", got, want)
	}
	cv.With("a", "quota").Inc()
	if got := scrape(); !strings.Contains(got, `t_shed_total{tenant="a",reason="quota"} 1`+"\n") {
		t.Errorf("a returning name does not restart from 0:\n%s", got)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(NewGaugeFunc("dup", "x", func() float64 { return 0 }))
	defer func() {
		if recover() == nil {
			t.Error("duplicate family name did not panic")
		}
	}()
	r.MustRegister(NewGaugeFunc("dup", "x", func() float64 { return 0 }))
}

func TestLabelEscaping(t *testing.T) {
	cv := NewCounterVec("t_esc_total", "Esc.", "v")
	cv.With("a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := cv.expose(&b, false); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(`t_esc_total{v="a\"b\\c\nd"} 1`)
	if !strings.Contains(b.String(), want) {
		t.Errorf("escaped output:\n%s\nwant line %s", b.String(), want)
	}
}

// A gauge family read at scrape time has one row per member of the
// state it reads, sorted by label values: a member added to the state
// appears, and a removed one has no row.
func TestGaugeVecFuncFollowsState(t *testing.T) {
	state := map[string]float64{"b2": 2, "b0": 0.5}
	g := NewGaugeVecFunc("t_backend_load", "Load.", func(set func(float64, ...string)) {
		for name, v := range state {
			set(v, name, "x")
		}
	}, "backend", "zone")
	scrape := func() string {
		var b strings.Builder
		if err := g.expose(&b, false); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	const head = "# HELP t_backend_load Load.\n# TYPE t_backend_load gauge\n"
	if got, want := scrape(), head+
		`t_backend_load{backend="b0",zone="x"} 0.5`+"\n"+
		`t_backend_load{backend="b2",zone="x"} 2`+"\n"; got != want {
		t.Errorf("first scrape:\n%s\nwant\n%s", got, want)
	}
	state["b1"] = 1
	delete(state, "b2")
	if got, want := scrape(), head+
		`t_backend_load{backend="b0",zone="x"} 0.5`+"\n"+
		`t_backend_load{backend="b1",zone="x"} 1`+"\n"; got != want {
		t.Errorf("after the state changed:\n%s\nwant\n%s", got, want)
	}
}

// A row whose label values do not match the label names panics, as
// With does on a written family.
func TestGaugeVecFuncCardinalityPanics(t *testing.T) {
	for _, tc := range []struct {
		name   string
		labels []string
		values []string
	}{
		{"too few values", []string{"backend", "zone"}, []string{"b0"}},
		{"too many values", []string{"backend"}, []string{"b0", "x"}},
		{"values on an unlabeled family", nil, []string{"b0"}},
	} {
		g := NewGaugeVecFunc("t_bad", "Bad.", func(set func(float64, ...string)) { set(1, tc.values...) }, tc.labels...)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			g.expose(io.Discard, false)
		}()
	}
}
