package engine

import (
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bitsim"
	"repro/internal/experiments"
	"repro/internal/faultsim"
	"repro/internal/obs"
	"repro/internal/testio"
)

// s27Spec is the fast spec most tests use (same scale as the cli
// tests: no budget, tiny P0).
func s27Spec(kind Kind) Spec {
	return Spec{Kind: kind, Circuit: "s27", NP: 0, NP0: 10, Seed: 1}
}

func waitDone(t *testing.T, e *Engine, id string) JobView {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	v, err := e.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	return v
}

func TestEngineGenerateJob(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Close()
	j, err := e.Submit(s27Spec(KindGenerate))
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, e, j.ID())
	if v.Status != StatusDone {
		t.Fatalf("status = %s (%s)", v.Status, v.Error)
	}
	r := v.Result
	if r == nil || r.TestCount == 0 || len(r.Tests) != r.TestCount {
		t.Fatalf("bad result: %+v", r)
	}
	if r.P0Detected == 0 || r.AllTotal < r.P0Size || r.AllDetected < r.P0Detected {
		t.Errorf("implausible detection counts: %+v", r)
	}
	if r.CacheKey == "" || r.CircuitHash == "" || r.FaultDigest == "" {
		t.Error("missing identity digests")
	}
	if got := gradeAll(t, s27Spec(KindGenerate), r.Tests); got != r.AllDetected {
		t.Errorf("all_detected = %d, want %d from grading the wire tests on P0 ∪ P1", r.AllDetected, got)
	}
}

// gradeAll parses the wire tests of a job run under spec and returns
// how many faults of its full P0 ∪ P1 they detect.
func gradeAll(t *testing.T, spec Spec, lines []string) int {
	t.Helper()
	c, err := experiments.LoadCircuit(spec.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	d, err := experiments.PrepareCircuit(c, experiments.Params{NP: spec.NP, NP0: spec.NP0})
	if err != nil {
		t.Fatal(err)
	}
	tests, _, err := testio.ParseTests(lines, len(c.PIs))
	if err != nil {
		t.Fatal(err)
	}
	if len(tests) != len(lines) {
		t.Fatalf("parsed %d tests from %d lines", len(tests), len(lines))
	}
	first, err := bitsim.Run(c, tests, d.All())
	if err != nil {
		t.Fatal(err)
	}
	return bitsim.Detected(first)
}

func TestEngineEnrichJob(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Close()
	v, err := e.RunJob(context.Background(), s27Spec(KindEnrich))
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusDone {
		t.Fatalf("status = %s (%s)", v.Status, v.Error)
	}
	r := v.Result
	if r.AllDetected != r.P0Detected+r.P1Detected {
		t.Errorf("enrich counts inconsistent: %+v", r)
	}
	if r.P0Size+r.P1Size != r.AllTotal {
		t.Errorf("partition sizes inconsistent: %+v", r)
	}
}

// Collapse narrows an enrich job's targets, not the set its coverage is
// measured on: all_total and all_detected are over the full P0 ∪ P1,
// and all_detected matches an independent grade of the job's tests.
func TestEnrichCollapseGradesFullSets(t *testing.T) {
	spec := Spec{Kind: KindEnrich, Circuit: "s1423", NP: 2000, NP0: 300, Seed: 1, Collapse: true}
	e := New(Config{Workers: 1})
	defer e.Close()
	v, err := e.RunJob(context.Background(), spec)
	if err != nil || v.Status != StatusDone {
		t.Fatalf("run: %s %s, %v", v.Status, v.Error, err)
	}
	r := v.Result
	if r.P0Detected != 287 || r.P1Detected != 444 {
		t.Errorf("p0/p1 detected = %d/%d, want 287/444", r.P0Detected, r.P1Detected)
	}
	if r.AllTotal != 1063 {
		t.Errorf("all_total = %d, want 1063 (the uncollapsed P0 ∪ P1)", r.AllTotal)
	}
	if want := gradeAll(t, spec, r.Tests); r.AllDetected != want {
		t.Errorf("all_detected = %d, want %d from grading the tests on P0 ∪ P1", r.AllDetected, want)
	}
}

func TestEngineFaultSimJob(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	gen, err := e.RunJob(context.Background(), s27Spec(KindGenerate))
	if err != nil || gen.Status != StatusDone {
		t.Fatalf("generate: %v %s", err, gen.Status)
	}
	spec := s27Spec(KindFaultSim)
	spec.Tests = gen.Result.Tests
	sim, err := e.RunJob(context.Background(), spec)
	if err != nil || sim.Status != StatusDone {
		t.Fatalf("faultsim: %v %s", err, sim.Status)
	}
	// Same circuit, same fault set, same tests: the faultsim job must
	// reproduce the generate job's accidental detection count.
	if sim.Result.Detected != gen.Result.AllDetected {
		t.Errorf("faultsim detected %d, generate measured %d",
			sim.Result.Detected, gen.Result.AllDetected)
	}
	if len(sim.Result.FirstDetect) != sim.Result.AllTotal {
		t.Errorf("first_detect has %d entries, want %d",
			len(sim.Result.FirstDetect), sim.Result.AllTotal)
	}
}

// A faultsim job whose lines are all canonical returns them as
// Result.Tests without a copy; one with a mixed-case line returns its
// canonical rendering, and the submitted lines are left as they were.
func TestEngineFaultSimSharesCanonicalTests(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	gen, err := e.RunJob(context.Background(), s27Spec(KindGenerate))
	if err != nil || gen.Status != StatusDone {
		t.Fatalf("generate: %v %s", err, gen.Status)
	}
	spec := s27Spec(KindFaultSim)
	spec.Tests = append([]string(nil), gen.Result.Tests...)
	sim, err := e.RunJob(context.Background(), spec)
	if err != nil || sim.Status != StatusDone {
		t.Fatalf("faultsim: %v %s", err, sim.Status)
	}
	if got := sim.Result.Tests; len(got) != len(spec.Tests) || &got[0] != &spec.Tests[0] {
		t.Errorf("canonical faultsim job copied its tests")
	}

	mixed := s27Spec(KindFaultSim)
	mixed.Tests = append([]string(nil), gen.Result.Tests...)
	mixed.Tests[0] = strings.ToUpper(strings.ReplaceAll(mixed.Tests[0], "0", "x"))
	submitted := append([]string(nil), mixed.Tests...)
	sim, err = e.RunJob(context.Background(), mixed)
	if err != nil || sim.Status != StatusDone {
		t.Fatalf("mixed faultsim: %v %s", err, sim.Status)
	}
	want := strings.ToLower(submitted[0])
	if got := sim.Result.Tests; &got[0] == &mixed.Tests[0] || got[0] != want || !reflect.DeepEqual(got[1:], submitted[1:]) {
		t.Errorf("mixed-case job returned tests %q, want %q then %q", got, want, submitted[1:])
	}
	if !reflect.DeepEqual(mixed.Tests, submitted) {
		t.Errorf("job changed its submitted tests to %q", mixed.Tests)
	}
}

func TestEngineCacheHit(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	first, err := e.RunJob(context.Background(), s27Spec(KindEnrich))
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("first run must not be a cache hit")
	}
	second, err := e.RunJob(context.Background(), s27Spec(KindEnrich))
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("identical resubmission must hit the cache")
	}
	if second.Result.CacheKey != first.Result.CacheKey {
		t.Errorf("cache keys differ: %s vs %s", first.Result.CacheKey, second.Result.CacheKey)
	}
	m := e.Metrics()
	if m.CacheHits != 1 || m.CacheMisses != 1 || m.CachePuts != 1 || m.CacheLen != 1 {
		t.Errorf("cache counters: %+v", m)
	}
	// A different seed is a different computation.
	diff := s27Spec(KindEnrich)
	diff.Seed = 2
	third, err := e.RunJob(context.Background(), diff)
	if err != nil {
		t.Fatal(err)
	}
	if third.CacheHit {
		t.Error("different seed must miss the cache")
	}
	// NoCache bypasses lookup and store.
	nc := s27Spec(KindEnrich)
	nc.NoCache = true
	fourth, err := e.RunJob(context.Background(), nc)
	if err != nil {
		t.Fatal(err)
	}
	if fourth.CacheHit {
		t.Error("no_cache run must not report a cache hit")
	}
	if n := e.Metrics().CacheLen; n != 2 {
		t.Errorf("cache len = %d, want 2", n)
	}
}

func TestEngineWorkersShareCacheKey(t *testing.T) {
	// The removed "workers" field survives only in old journals, which
	// replay through a lenient decode: such a spec is the same job as
	// one without it and must share its cache entry.
	e := New(Config{Workers: 1})
	defer e.Close()
	fresh := s27Spec(KindGenerate)
	v1, err := e.RunJob(context.Background(), fresh)
	if err != nil {
		t.Fatal(err)
	}
	var legacy Spec
	if err := json.Unmarshal([]byte(`{"kind":"generate","circuit":"s27","np0":10,"seed":1,"workers":8}`), &legacy); err != nil {
		t.Fatal(err)
	}
	v2, err := e.RunJob(context.Background(), legacy)
	if err != nil {
		t.Fatal(err)
	}
	if !v2.CacheHit {
		t.Error("a legacy spec carrying workers must hit the cache of the same spec without it")
	}
	if v1.Result.CacheKey != v2.Result.CacheKey {
		t.Error("workers changed the cache key")
	}
}

func TestEngineValidation(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	bad := []Spec{
		{Kind: "explode", Circuit: "s27"},
		{Kind: KindGenerate},
		{Kind: KindGenerate, Circuit: "s27", Heuristic: "bogus"},
		{Kind: KindFaultSim, Circuit: "s27"},
		{Kind: KindGenerate, Circuit: "s27", NP: -1},
	}
	for i, spec := range bad {
		if _, err := e.Submit(spec); err == nil {
			t.Errorf("spec %d must be rejected", i)
		}
	}
	// An unknown circuit passes validation but fails the job.
	v, err := e.RunJob(context.Background(), Spec{Kind: KindGenerate, Circuit: "ghost"})
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusFailed || v.Error == "" {
		t.Errorf("unknown circuit: status %s error %q", v.Status, v.Error)
	}
	m := e.Metrics()
	if m.JobsFailed != 1 {
		t.Errorf("jobs_failed = %d, want 1", m.JobsFailed)
	}
}

func TestEngineUnknownJobAndClose(t *testing.T) {
	e := New(Config{Workers: 1})
	if _, err := e.Wait(context.Background(), "j999"); err != ErrUnknownJob {
		t.Errorf("Wait unknown = %v", err)
	}
	if e.Cancel("j999") {
		t.Error("Cancel unknown must report false")
	}
	e.Close()
	if _, err := e.Submit(s27Spec(KindGenerate)); err != ErrClosed {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
	e.Close() // idempotent
}

func TestEngineJobsListing(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	var ids []string
	for i := 0; i < 3; i++ {
		spec := s27Spec(KindGenerate)
		spec.Seed = int64(i + 1)
		j, err := e.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID())
	}
	for _, id := range ids {
		waitDone(t, e, id)
	}
	views, _ := e.JobsPage(JobsQuery{})
	if len(views) != 3 {
		t.Fatalf("listed %d jobs, want 3", len(views))
	}
	for i, v := range views {
		if v.ID != ids[i] {
			t.Errorf("job %d listed out of submission order", i)
		}
		if v.Status != StatusDone {
			t.Errorf("job %s status %s", v.ID, v.Status)
		}
	}
}

func TestEngineDeadline(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	spec := Spec{Kind: KindEnrich, Circuit: "s641", NP: 2000, NP0: 300, Seed: 1, TimeoutMS: 30}
	v, err := e.RunJob(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusFailed {
		t.Fatalf("deadline-bounded job status = %s, want failed", v.Status)
	}
	if e.Metrics().CacheLen != 0 {
		t.Error("timed-out job must not be cached")
	}
}

// A faultsim job must reproduce the scalar reference simulator
// (faultsim.Run) index for index, independently of the word-parallel
// simulator the job runs. The test set mixes fully specified and
// x-bearing tests across a 64-test batch boundary: random tests with
// x in about a quarter of the positions, a generated set with a few x
// masked in, then the generated set itself.
func TestEngineFaultSimMatchesScalar(t *testing.T) {
	for _, spec := range []Spec{
		{Kind: KindGenerate, Circuit: "s27", NP0: 10, Seed: 1},
		{Kind: KindGenerate, Circuit: "c17", NP0: 10, Seed: 1},
		{Kind: KindGenerate, Circuit: "s953", NP: 300, NP0: 60, Seed: 1},
	} {
		t.Run(spec.Circuit, func(t *testing.T) {
			e := New(Config{Workers: 1})
			defer e.Close()
			gen, err := e.RunJob(context.Background(), spec)
			if err != nil || gen.Status != StatusDone {
				t.Fatalf("generate: %v %s", err, gen.Status)
			}
			c, err := experiments.LoadCircuit(spec.Circuit)
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(1))
			// mask turns about one in every n specified positions into x.
			mask := func(s string, n int) string {
				b := []byte(s)
				for i := range b {
					if (b[i] == '0' || b[i] == '1') && r.Intn(n) == 0 {
						b[i] = 'x'
					}
				}
				return string(b)
			}
			var lines []string
			for i := 0; i < 70; i++ {
				var sb strings.Builder
				for k := 0; k < 2*len(c.PIs); k++ {
					if k == len(c.PIs) {
						sb.WriteString(" -> ")
					}
					sb.WriteByte("01"[r.Intn(2)])
				}
				lines = append(lines, mask(sb.String(), 4))
			}
			for _, s := range gen.Result.Tests {
				lines = append(lines, mask(s, 16))
			}
			lines = append(lines, gen.Result.Tests...)

			fs := spec
			fs.Kind, fs.Tests = KindFaultSim, lines
			sim, err := e.RunJob(context.Background(), fs)
			if err != nil || sim.Status != StatusDone {
				t.Fatalf("faultsim: %v %s %s", err, sim.Status, sim.Error)
			}

			d, err := experiments.PrepareCircuit(c, experiments.Params{NP: spec.NP, NP0: spec.NP0, Seed: spec.Seed})
			if err != nil {
				t.Fatal(err)
			}
			tests, err := testio.ReadTests(strings.NewReader(strings.Join(lines, "\n")), len(c.PIs))
			if err != nil {
				t.Fatal(err)
			}
			want := faultsim.Run(c, tests, d.All())
			if !reflect.DeepEqual(sim.Result.FirstDetect, want) {
				t.Fatalf("first-detect indices differ from faultsim.Run:\n got %v\nwant %v", sim.Result.FirstDetect, want)
			}
			byX := 0
			for _, ti := range want {
				if ti >= 0 && !tests[ti].FullySpecified() {
					byX++
				}
			}
			if byX == 0 {
				t.Error("no fault first detected by an x-bearing test; comparison vacuous")
			}
			t.Logf("%s: %d tests, %d/%d detected, %d first by an x-bearing test",
				spec.Circuit, len(tests), sim.Result.Detected, len(want), byX)
		})
	}
}

// A job reads each of its instants (created, started, finished) once,
// and every reading shares them. The queued span ends at the start
// instant, so its duration is the view's queued_ms to the bit; the
// root span ends at the finish instant, so its duration is the
// retained trace's duration_ms. A job canceled while queued ends both
// spans at its finish instant.
func TestJobOneClock(t *testing.T) {
	held, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	e := New(Config{Workers: 1, Injector: InjectorFunc(func(ctx context.Context, stage Stage, id string) error {
		if stage == StagePrepare {
			once.Do(func() {
				close(held)
				<-release
			})
		}
		return nil
	})})
	defer e.Close()
	ran, err := e.Submit(s27Spec(KindGenerate))
	if err != nil {
		t.Fatal(err)
	}
	<-held
	queued, err := e.Submit(s27Spec(KindEnrich))
	if err != nil {
		t.Fatal(err)
	}
	if !e.Cancel(queued.ID()) {
		t.Fatal("cancel of a queued job failed")
	}
	close(release)
	spans := func(v JobView) (root, wait obs.SpanView) {
		t.Helper()
		for _, s := range v.Trace.Spans {
			switch s.Name {
			case "job":
				root = s
			case "queued":
				wait = s
			}
		}
		if root.Name == "" || wait.Name == "" || root.DurMS < 0 || wait.DurMS < 0 {
			t.Fatalf("job %s: root %+v, queued %+v; want both spans closed", v.ID, root, wait)
		}
		return root, wait
	}

	v := waitDone(t, e, ran.ID())
	root, wait := spans(v)
	if wait.DurMS != v.QueuedMS {
		t.Errorf("queued span dur_ms %v, view queued_ms %v; want equal", wait.DurMS, v.QueuedMS)
	}
	rt, ok := e.Traces().Get(v.TraceID)
	if !ok {
		t.Fatalf("trace %s not retained", v.TraceID)
	}
	if root.DurMS != rt.DurationMS {
		t.Errorf("root span dur_ms %v, retained duration_ms %v; want equal", root.DurMS, rt.DurationMS)
	}
	if rtRoot, _ := spans(JobView{ID: v.ID, Trace: rt.Trace}); rtRoot.DurMS != rt.DurationMS {
		t.Errorf("retained root span dur_ms %v, duration_ms %v; want equal", rtRoot.DurMS, rt.DurationMS)
	}

	v = waitDone(t, e, queued.ID())
	if v.Status != StatusCanceled {
		t.Fatalf("queued job = %s, want canceled", v.Status)
	}
	if root, wait := spans(v); wait.DurMS != root.DurMS {
		t.Errorf("canceled while queued: queued span dur_ms %v, root %v; want equal", wait.DurMS, root.DurMS)
	}
}
