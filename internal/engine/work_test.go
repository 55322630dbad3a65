package engine

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
)

// workCase is a job whose generation stage the tests below compare
// with the in-process core run on the same prepared sets.
type workCase struct {
	spec Spec
	run  func(d *experiments.CircuitData) *core.Result
}

var workCases = []workCase{
	{Spec{Kind: KindEnrich, Circuit: "s953", NP: 1000, NP0: 200, Seed: 1},
		func(d *experiments.CircuitData) *core.Result {
			return &core.Enrich(d.Circuit, d.P0, d.P1, core.Config{Seed: 1}).Result
		}},
	{Spec{Kind: KindGenerate, Circuit: "b09", NP: 1000, NP0: 200, Seed: 1, Heuristic: "arbit"},
		func(d *experiments.CircuitData) *core.Result {
			return core.Generate(d.Circuit, d.P0, core.Config{Heuristic: core.Arbitrary, Seed: 1})
		}},
}

// coreRun runs tc's procedure in process on the sets the engine
// prepares for its spec (prepare reads no seed).
func (tc workCase) coreRun(t *testing.T) *core.Result {
	t.Helper()
	d, err := experiments.Prepare(tc.spec.Circuit, experiments.Params{NP: tc.spec.NP, NP0: tc.spec.NP0})
	if err != nil {
		t.Fatal(err)
	}
	return tc.run(d)
}

// spansNamed returns the spans of v's trace called name.
func spansNamed(v JobView, name string) []obs.SpanView {
	var out []obs.SpanView
	if v.Trace != nil {
		for _, s := range v.Trace.Spans {
			if s.Name == name {
				out = append(out, s)
			}
		}
	}
	return out
}

// The generation span ends with the run's work as Work.Counts renders
// it, and a cache hit, which runs no generation, has no such span.
func TestGenerationSpanWork(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	for _, tc := range workCases {
		name := fmt.Sprintf("%s/%s", tc.spec.Circuit, tc.spec.Kind)
		v, err := e.RunJob(context.Background(), tc.spec)
		if err != nil || v.Status != StatusDone {
			t.Fatalf("%s: %v %s %s", name, err, v.Status, v.Error)
		}
		res := tc.coreRun(t)
		if v.Result.TestCount != len(res.Tests) {
			t.Fatalf("%s: job made %d tests, core %d", name, v.Result.TestCount, len(res.Tests))
		}
		heuristic := tc.spec.Heuristic
		if heuristic == "" {
			heuristic = "values"
		}
		want := map[string]string{"heuristic": heuristic, "tests": strconv.Itoa(len(res.Tests))}
		res.Counts(func(name string, n int) { want[name] = strconv.Itoa(n) })
		gen := spansNamed(v, "generation")
		if len(gen) != 1 {
			t.Fatalf("%s: %d generation spans", name, len(gen))
		}
		if !reflect.DeepEqual(gen[0].Attrs, want) {
			t.Errorf("%s: generation span attributes\n got %v\nwant %v", name, gen[0].Attrs, want)
		}

		hit, err := e.RunJob(context.Background(), tc.spec)
		if err != nil || !hit.CacheHit {
			t.Fatalf("%s: resubmission: %v, cache hit %t", name, err, hit.CacheHit)
		}
		if gen := spansNamed(hit, "generation"); len(gen) != 0 {
			t.Errorf("%s: cache hit has %d generation spans", name, len(gen))
		}
	}
}

// exposition scrapes the engine's Prometheus text into a map from
// series (name and labels) to value.
func exposition(t *testing.T, e *Engine) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := e.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("series %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// The pdfd_atpg_* series of a fresh engine after one enrich job hold
// that run's work.
func TestATPGMetricsValues(t *testing.T) {
	tc := workCases[0]
	e := New(Config{Workers: 1})
	defer e.Close()
	if v, err := e.RunJob(context.Background(), tc.spec); err != nil || v.Status != StatusDone {
		t.Fatalf("%v %s %s", err, v.Status, v.Error)
	}
	w := tc.coreRun(t).Work
	regens := 0
	for _, n := range w.RegenPerTest {
		regens += n
	}
	want := map[string]float64{
		"pdfd_atpg_justify_calls_total":                        float64(w.JustifyStats.Calls),
		"pdfd_atpg_justify_probes_total":                       float64(w.JustifyStats.Probes),
		"pdfd_atpg_justify_backtracks_total":                   float64(w.JustifyStats.Backtracks),
		"pdfd_atpg_regenerations_per_test_count":               float64(len(w.RegenPerTest)),
		"pdfd_atpg_regenerations_per_test_sum":                 float64(regens),
		`pdfd_atpg_secondary_total{set="p0",outcome="accept"}`: float64(w.SecondaryAcceptsBySet[0]),
		`pdfd_atpg_secondary_total{set="p0",outcome="reject"}`: float64(w.SecondaryRejectsBySet[0]),
		`pdfd_atpg_secondary_total{set="p1",outcome="accept"}`: float64(w.SecondaryAcceptsBySet[1]),
		`pdfd_atpg_secondary_total{set="p1",outcome="reject"}`: float64(w.SecondaryRejectsBySet[1]),
	}
	got := exposition(t, e)
	for series, n := range want {
		if n == 0 && !strings.Contains(series, "backtracks") {
			t.Errorf("%s: the run's count is 0, so the check is vacuous", series)
		}
		if v, ok := got[series]; !ok || v != n {
			t.Errorf("%s = %v (present %t), want %v", series, v, ok, n)
		}
	}
	for series := range got {
		if strings.HasPrefix(series, "pdfd_atpg_secondary_total") {
			if _, ok := want[series]; !ok {
				t.Errorf("unexpected series %s", series)
			}
		}
	}
}

// An enrich job runs uncomp as values, so the two specs are one
// computation under one cache key; a generate job keeps them apart.
func TestEnrichUncompSharesValuesCacheKey(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	uncomp, values := s27Spec(KindEnrich), s27Spec(KindEnrich)
	uncomp.Heuristic, values.Heuristic = "uncomp", "values"
	first, err := e.RunJob(context.Background(), uncomp)
	if err != nil || first.Status != StatusDone {
		t.Fatalf("uncomp: %v %s %s", err, first.Status, first.Error)
	}
	second, err := e.RunJob(context.Background(), values)
	if err != nil || second.Status != StatusDone {
		t.Fatalf("values: %v %s %s", err, second.Status, second.Error)
	}
	if !second.CacheHit || second.Result.CacheKey != first.Result.CacheKey {
		t.Errorf("values after uncomp: cache hit %t, keys %s and %s",
			second.CacheHit, first.Result.CacheKey, second.Result.CacheKey)
	}
	uncomp.Kind, values.Kind = KindGenerate, KindGenerate
	if SpecDigest(uncomp) == SpecDigest(values) {
		t.Error("generate: uncomp and values share a spec digest")
	}
}
