package engine

import (
	"context"
	"fmt"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// allStages is every Stage, in pipeline order.
var allStages = []Stage{StageLoad, StageCacheLookup, StagePrepare, StageGeneration, StageSimulation, StageStore}

// stageTree renders a trace one span a line, indented under its
// parent. A run of same-named siblings prints once, with its count:
// how many compaction spans a job has is a result, not a shape.
func stageTree(spans []obs.SpanView) string {
	depth := map[int]int{}
	var b strings.Builder
	prev, n := "", 0
	flush := func() {
		if n > 1 {
			fmt.Fprintf(&b, " ×%d", n)
		}
		if n > 0 {
			b.WriteByte('\n')
		}
	}
	for _, s := range spans {
		depth[s.ID] = depth[s.Parent] + 1
		line := strings.Repeat("  ", depth[s.ID]-1) + s.Name
		if line == prev {
			n++
			continue
		}
		flush()
		b.WriteString(line)
		prev, n = line, 1
	}
	flush()
	return b.String()
}

// eventLine renders a finished job's event stream: each event's type,
// and a stage event's stage after a colon.
func eventLine(t *testing.T, j *Job) string {
	t.Helper()
	var out []string
	for ev := range j.stream.Subscribe(0, 0).Events() {
		s := ev.Type
		if ev.Type == "stage" {
			s += ":" + ev.Data["stage"]
		}
		out = append(out, s)
	}
	return strings.Join(out, " ")
}

// stageLabels returns the sorted stage labels of the engine's
// pdfd_stage_duration_seconds rows.
func stageLabels(t *testing.T, e *Engine) []string {
	t.Helper()
	var b strings.Builder
	if err := e.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, m := range regexp.MustCompile(`(?m)^pdfd_stage_duration_seconds_count\{stage="([^"]*)"\}`).FindAllStringSubmatch(b.String(), -1) {
		out = append(out, m[1])
	}
	sort.Strings(out)
	return out
}

// stageTreeGolden is the stage tree of an s27 enrich miss with
// collapse on an engine with a store, then of the same spec again, a
// cache hit, then of an s27 faultsim miss: the injector's calls, the
// span tree (names and parents) and the SSE stream.
const stageTreeGolden = `miss
injector: load cache_lookup prepare generation simulation store
job
  queued
  load
  cache_lookup
  prepare
    pathenum
    screen
    partition
    collapse
  generation
    compaction ×3
  simulation
  store
events: queued stage:load stage:cache_lookup stage:prepare stage:generation stage:simulation stage:store done
hit
injector: load cache_lookup
job
  queued
  load
  cache_lookup
events: queued stage:load stage:cache_lookup done
faultsim
injector: load cache_lookup prepare simulation store
job
  queued
  load
  cache_lookup
  prepare
    pathenum
    screen
    partition
  simulation
  store
events: queued stage:load stage:cache_lookup stage:prepare stage:simulation stage:store done
`

// TestStageTree pins the one stage vocabulary: the injector is called
// at each stage, the stage's span hangs from the job's root span, and
// the histogram label and SSE stage event carry the same name. A
// miss's stream fits jobEvents, and a faultsim job parses its tests
// inside the simulation stage, whose tests attribute counts the
// submitted lines.
func TestStageTree(t *testing.T) {
	if n := 1 + len(allStages) + 1; jobEvents != n {
		t.Fatalf("jobEvents = %d, want queued, %d stages and the terminal event: %d", jobEvents, len(allStages), n)
	}
	var mu sync.Mutex
	var calls []string
	inj := InjectorFunc(func(ctx context.Context, stage Stage, id string) error {
		mu.Lock()
		calls = append(calls, string(stage))
		mu.Unlock()
		return nil
	})
	e := New(Config{Workers: 1, Store: openTestStore(t, t.TempDir()), Injector: inj})
	defer e.Close()
	spec := Spec{Kind: KindEnrich, Circuit: "s27", NP0: 10, Seed: 1, Collapse: true}
	tests := []string{"0010010 -> 1010010", "1111111 -> 0000000", "0000000 -> 1111111"}
	var b strings.Builder
	for _, run := range []struct {
		name string
		spec Spec
	}{
		{"miss", spec},
		{"hit", spec},
		{"faultsim", Spec{Kind: KindFaultSim, Circuit: "s27", NP0: 10, Seed: 1, Tests: tests}},
	} {
		mu.Lock()
		calls = nil
		mu.Unlock()
		published := e.Events().Published()
		v, err := e.RunJob(context.Background(), run.spec)
		if err != nil || v.Status != StatusDone || v.CacheHit != (run.name == "hit") {
			t.Fatalf("%s run: %s cache_hit=%t %v", run.name, v.Status, v.CacheHit, err)
		}
		j, _ := e.Get(v.ID)
		tv := j.TraceView()
		if tv.Dropped != 0 {
			t.Errorf("%s run dropped %d spans", run.name, tv.Dropped)
		}
		mu.Lock()
		fmt.Fprintf(&b, "%s\ninjector: %s\n", run.name, strings.Join(calls, " "))
		mu.Unlock()
		b.WriteString(stageTree(tv.Spans))
		fmt.Fprintf(&b, "events: %s\n", eventLine(t, j))
		if n := e.Events().Published() - published; n > jobEvents {
			t.Errorf("%s run published %d events, past the bound of %d", run.name, n, jobEvents)
		}
		for _, sp := range tv.Spans {
			if sp.Name == string(StageSimulation) && run.spec.Kind == KindFaultSim && sp.Attrs["tests"] != fmt.Sprint(len(tests)) {
				t.Errorf("faultsim simulation span tests = %q, want the %d submitted lines", sp.Attrs["tests"], len(tests))
			}
		}
	}
	mu.Lock()
	calls = nil
	mu.Unlock()
	v, err := e.RunJob(context.Background(), Spec{Kind: KindFaultSim, Circuit: "s27", NP0: 10, Seed: 1, Tests: []string{"01 -> 10"}})
	mu.Lock()
	got := strings.Join(calls, " ")
	mu.Unlock()
	if err != nil || v.Status != StatusFailed || got != "load cache_lookup prepare simulation" {
		t.Errorf("malformed faultsim job: %s (%v), injector %q; want it failed inside the simulation stage", v.Status, err, got)
	}
	if got := b.String(); got != stageTreeGolden {
		t.Errorf("stage tree differs from the golden:\n--- got ---\n%s--- want ---\n%s", got, stageTreeGolden)
	}

	want := make([]string, len(allStages))
	for i, s := range allStages {
		want[i] = string(s)
	}
	sort.Strings(want)
	if got := stageLabels(t, e); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("pdfd_stage_duration_seconds stage labels = %v, want the Stage constants %v", got, want)
	}
}

// At the paper's budgets an uncompacted generate job has hundreds of
// tests. Its trace keeps every span, the grading simulation stage
// among them: core opens no span per test.
func TestStageSpanCapUncomp(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	v, err := e.RunJob(context.Background(), Spec{Kind: KindGenerate, Circuit: "s1423", NP: 10000, NP0: 1000, Seed: 1, Heuristic: "uncomp"})
	if err != nil || v.Status != StatusDone {
		t.Fatalf("job: %s %v", v.Status, err)
	}
	j, _ := e.Get(v.ID)
	tv := j.TraceView()
	if tv.Dropped != 0 {
		t.Errorf("trace dropped %d spans (%d kept, %d tests)", tv.Dropped, len(tv.Spans), v.Result.TestCount)
	}
	found := false
	for _, s := range tv.Spans {
		if s.Name == string(StageSimulation) && s.Parent == tv.Spans[0].ID {
			found = true
		}
	}
	if !found {
		t.Errorf("no simulation stage under the job span among %d spans", len(tv.Spans))
	}
}

// An injector error at a stage's entry fails the job before the stage
// opens: no span of that stage, none left open, no histogram count for
// it, and the event stream ends with failed.
func TestChaosStageFailures(t *testing.T) {
	for _, target := range allStages {
		t.Run(string(target), func(t *testing.T) {
			inj := InjectorFunc(func(ctx context.Context, stage Stage, id string) error {
				if stage == target {
					return errInjected
				}
				return nil
			})
			e := New(Config{Workers: 1, Store: openTestStore(t, t.TempDir()), Injector: inj})
			defer e.Close()
			v, err := e.RunJob(context.Background(), Spec{Kind: KindEnrich, Circuit: "s27", NP0: 10, Seed: 1, Collapse: true})
			if err != nil || v.Status != StatusFailed || !strings.Contains(v.Error, errInjected.Error()) {
				t.Fatalf("job = %s %q (%v), want failed with the injected error", v.Status, v.Error, err)
			}
			j, _ := e.Get(v.ID)
			for _, s := range j.TraceView().Spans {
				if s.DurMS < 0 {
					t.Errorf("span %q left open", s.Name)
				}
				if s.Name == string(target) {
					t.Errorf("failed stage %q has a span", target)
				}
			}
			for _, s := range stageLabels(t, e) {
				if s == string(target) {
					t.Errorf("failed stage %q has a histogram count", target)
				}
			}
			evs := eventLine(t, j)
			if !strings.HasSuffix(evs, " failed") || strings.Contains(evs, "stage:"+string(target)) {
				t.Errorf("events = %q, want no %s stage event and a final failed", evs, target)
			}
		})
	}
}
