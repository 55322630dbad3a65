package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/experiments"
)

func TestSelfTimeNestedSpans(t *testing.T) {
	// job [0,100) with engine [10,40) and core [50,90); core holds
	// justify [60,70).
	spans := []Span{
		{ID: 1, Job: 0, Name: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Job: 0, Name: "engine", Start: 10, End: 40},
		{ID: 3, Parent: 1, Job: 0, Name: "core", Start: 50, End: 90},
		{ID: 4, Parent: 3, Job: 0, Name: "justify", Start: 60, End: 70},
	}
	got := selfTimes(spans)
	want := map[int]int64{1: 30, 2: 30, 3: 30, 4: 10}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times = %v, want %v", got, want)
	}
	byName, wall, err := layerSelf(spans)
	if err != nil {
		t.Fatal(err)
	}
	if wall != 100e-9 || byName["core"] != 30e-9 || byName["job"] != 30e-9 {
		t.Fatalf("layerSelf = %v, wall %v", byName, wall)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	// Children [10,50) and [30,70) overlap, and [90,130) runs past the
	// parent's end: only their union inside [0,100) counts.
	spans := []Span{
		{ID: 1, Job: 0, Name: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Job: 0, Name: "a", Start: 10, End: 50},
		{ID: 3, Parent: 1, Job: 0, Name: "b", Start: 30, End: 70},
		{ID: 4, Parent: 1, Job: 0, Name: "c", Start: 90, End: 130},
	}
	if got := selfTimes(spans)[1]; got != 100-60-10 {
		t.Fatalf("parent self = %d, want 30", got)
	}
	// The overlap double-counts: self times no longer partition the
	// job's wall time, and layerSelf refuses the trace.
	if _, _, err := layerSelf(spans); err == nil {
		t.Fatal("layerSelf accepted overlapping children")
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// 99 samples: p90 is rank 90, with 9 above it.
	if v, ok := percentile(xs, 90); ok || v != 90 {
		t.Fatalf("p90 of 99 = %v, reported %v; want 90, not reported", v, ok)
	}
	xs = append(xs, 100)
	// 100 samples: p90 is rank 90, with 10 above it.
	if v, ok := percentile(xs, 90); !ok || v != 90 {
		t.Fatalf("p90 of 100 = %v, reported %v; want 90, reported", v, ok)
	}
	if _, ok := percentile(nil, 50); ok {
		t.Fatal("percentile of no samples reported")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestSeedGivesSameJobList(t *testing.T) {
	if !reflect.DeepEqual(enrichSpecs(7, 20), enrichSpecs(7, 20)) {
		t.Fatal("enrich-cold list differs for one seed")
	}
	if reflect.DeepEqual(enrichSpecs(7, 20), enrichSpecs(8, 20)) {
		t.Fatal("enrich-cold list ignores the seed")
	}
	c, err := experiments.LoadCircuit(gradeCircuit)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gradeSpecs(c, 7, 2), gradeSpecs(c, 7, 2)) {
		t.Fatal("grade-sim list differs for one seed")
	}
	hot := hotSet()
	a, b := fleetReqs(7, 200, hot, 0), fleetReqs(7, 200, hot, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("fleet-replay list differs for one seed")
	}
	traced := fleetReqs(7, 200, hot, 1)
	seeds := map[int64]bool{}
	news := 0
	for i := range a {
		if a[i].Hot != traced[i].Hot || a[i].Spec.Circuit != traced[i].Spec.Circuit {
			t.Fatalf("request %d: salt changed more than the new job's seed", i)
		}
		if a[i].Hot >= 0 {
			continue
		}
		news++
		for _, s := range []int64{a[i].Spec.Seed, traced[i].Spec.Seed} {
			if seeds[s] {
				t.Fatalf("new job seed %d repeats", s)
			}
			seeds[s] = true
		}
	}
	if news != 200/fleetNewEvery {
		t.Fatalf("%d new jobs in 200 requests, want %d", news, 200/fleetNewEvery)
	}
}

func TestHitMissFromCacheHit(t *testing.T) {
	res := &engine.Result{Kind: engine.KindEnrich}
	ph := &phase{
		outs: []outcome{
			{lat: 0.08, view: engine.JobView{CacheHit: true, Result: res}},
			{lat: 0.01, view: engine.JobView{CacheHit: false, Result: res}},
			{lat: 0.10, view: engine.JobView{CacheHit: true, Result: res}},
		},
		elapsed: 1,
		class:   isHit,
	}
	if got := endToEnd(ph, 1)["job_p50_s"]; got != 0.09 {
		t.Fatalf("hit median = %v, want 0.09 (misses excluded)", got)
	}
}

func TestDeterminismGate(t *testing.T) {
	code, err := binaryDigest()
	if err != nil || len(code) != 16 {
		t.Fatalf("binaryDigest = %q, %v", code, err)
	}
	path := filepath.Join(t.TempDir(), code+".json")
	first := map[string]float64{"tests_total": 1630, "justify.probes": 52}
	if err := determinismGate(path, first); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if err := determinismGate(path, first); err != nil {
		t.Fatalf("same figures: %v", err)
	}
	moved := map[string]float64{"tests_total": 1630, "justify.probes": 40}
	if err := determinismGate(path, moved); err == nil {
		t.Fatal("gate accepted a moved counter")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if _, err := newBench(w.Name, 1, 1, t.TempDir()); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}
	strip := func(ms []metricDef) []metricDef {
		out := make([]metricDef, len(ms))
		for i, m := range ms {
			out[i] = metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better}
		}
		return out
	}
	if got, want := doc.EndToEnd, strip(endToEndMetrics); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end = %v\nprogram prints %v", got, want)
	}
	if got, want := doc.PerLayer, strip(perLayerMetrics); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer = %v\nprogram prints %v", got, want)
	}
	self := map[string]bool{}
	for _, name := range spanMetric {
		self[name] = true
	}
	for name := range self {
		found := false
		for _, m := range perLayerMetrics {
			found = found || m.Name == name
		}
		if !found {
			t.Errorf("span metric %s is not a per-layer metric", name)
		}
	}
}
