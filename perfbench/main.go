// Command perfbench is the repository's benchmark. It runs one of three
// closed-loop workloads over a fixed job list generated from --seed,
// times the calls it makes into the system from outside, checks every
// output, and prints one JSON result line:
//
//	perfbench --workload enrich-cold|grade-sim|fleet-replay --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics. --trace 1 also replays the
// job list while calling each layer directly under a span, and reports
// the per-layer metrics: self times, exact work counters, store and
// journal latencies. README.md describes the workloads and metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/engine"
)

// setupPasses is how many times a run sets its workload up from
// nothing; setup_s is their median.
const setupPasses = 3

// bench is one workload, set up and run by main.
type bench interface {
	// setUp builds the workload from nothing and runs its warm pass,
	// returning a digest of the warm results (equal on every pass).
	setUp() (string, error)
	tearDown()
	// timed runs the job list with no spans recorded.
	timed() (*phase, error)
	// traced replays the job list, recording spans around the system
	// call and the direct layer calls of every job.
	traced(rec *Recorder) (*tracedPhase, error)
}

// outcome is one timed job.
type outcome struct {
	lat  float64 // seconds from submit to the terminal view, at reference speed
	raw  float64 // the same, as measured
	view engine.JobView
	err  error // failed, refused or check failed
}

// phase is the untraced run of a job list.
type phase struct {
	outs    []outcome
	elapsed float64 // seconds at reference speed
	// speed holds the host speed factor of every timed interval.
	speed []float64
	// class marks the jobs whose latency job_p50_s summarizes.
	class func(o outcome) bool
	mem   memDelta
	// layers are per-layer metrics only the untraced run can give
	// (backend counters, latency classes).
	layers map[string]float64
}

// tracedPhase is the traced replay of a job list.
type tracedPhase struct {
	jobs     int
	failed   int
	spans    []Span
	counters counters
	// sysSpan names the span around the system call whose mean duration
	// is compared with the untraced latency.
	sysSpan string
	// overheads maps a metric to per-job "outer span minus inner spans"
	// differences.
	overheads map[string][]float64
	layers    map[string]float64
}

type memDelta struct {
	allocBytes float64
	gcCycles   float64
	gcPause    float64 // seconds
}

func (m *memDelta) add(o memDelta) {
	m.allocBytes += o.allocBytes
	m.gcCycles += o.gcCycles
	m.gcPause += o.gcPause
}

// measureMem runs fn and returns the allocation and GC it caused. The
// timed phases call it around each job or request batch only, so the
// benchmark's own work between them (checks, polling, the collections
// speed.next forces) stays out. A forced cycle inside the window is not
// the program's and is left out of the cycle count.
func measureMem(fn func()) memDelta {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return memDelta{
		allocBytes: float64(m1.TotalAlloc - m0.TotalAlloc),
		gcCycles:   float64((m1.NumGC - m0.NumGC) - (m1.NumForcedGC - m0.NumForcedGC)),
		gcPause:    float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e9,
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "enrich-cold, grade-sim or fleet-replay")
	seed := flag.Int64("seed", 1, "workload seed: the job list is a function of it and --seconds")
	seconds := flag.Int("seconds", 10, "run length; sizes the fixed job list")
	trace := flag.Int("trace", 0, "1 replays the job list with per-layer spans and reports per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	buildDir := os.Getenv("CARGO_TARGET_DIR")
	if buildDir == "" {
		buildDir = ".bench_build"
	}
	workDir, err := os.MkdirTemp(mustMkdir(buildDir), "perfbench-run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workDir)

	b, err := newBench(*workload, *seed, *seconds, workDir)
	if err != nil {
		return err
	}
	var setups []float64
	var warm string
	for i := 0; i < setupPasses; i++ {
		if i > 0 {
			b.tearDown()
		}
		sp := newSpeed()
		t0 := time.Now()
		digest, err := b.setUp()
		s, _ := sp.next(time.Since(t0).Seconds())
		setups = append(setups, s)
		if err != nil {
			b.tearDown()
			return fmt.Errorf("set-up: %w", err)
		}
		if i > 0 && digest != warm {
			b.tearDown()
			return errors.New("set-up: warm pass results differ between set-up passes")
		}
		warm = digest
	}
	defer b.tearDown()

	ph, err := b.timed()
	if err != nil {
		return err
	}
	rep := report{Attempted: len(ph.outs), Metrics: map[string]metric{}}
	for _, o := range ph.outs {
		if o.err != nil {
			rep.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: job failed: %v\n", o.err)
		}
	}
	e2e := endToEnd(ph, median(setups))
	gated := map[string]float64{}
	for _, name := range []string{"tests_total", "p0_cov", "p1_cov", "faults_detected"} {
		gated[name] = e2e[name]
	}

	if *trace == 0 {
		for _, m := range endToEndMetrics {
			rep.Metrics[m.Name] = metric{e2e[m.Name], m.Unit}
		}
	} else {
		rec := NewRecorder()
		tp, err := b.traced(rec)
		if err != nil {
			return err
		}
		rep.Attempted += tp.jobs
		rep.Failed += tp.failed
		layers, err := perLayer(ph, tp)
		if err != nil {
			return err
		}
		if err := rec.Write(filepath.Join(mustMkdir(filepath.Join(buildDir, "perfbench-traces")),
			fmt.Sprintf("%s-seed%d.json", *workload, *seed))); err != nil {
			return err
		}
		for _, m := range perLayerMetrics {
			rep.Metrics[m.Name] = metric{layers[m.Name], m.Unit}
			if m.exact {
				gated[m.Name] = layers[m.Name]
			}
		}
	}
	code, err := binaryDigest()
	if err != nil {
		return err
	}
	gate := filepath.Join(mustMkdir(filepath.Join(buildDir, "perfbench-gate")),
		fmt.Sprintf("%s-%s-seed%d-s%d-trace%d.json", code, *workload, *seed, *seconds, *trace))
	if err := determinismGate(gate, gated); err != nil {
		return err
	}
	rep.Correct = rep.Failed == 0
	out, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func newBench(workload string, seed int64, seconds int, dir string) (bench, error) {
	switch workload {
	case "enrich-cold":
		return newEnrichCold(seed, seconds), nil
	case "grade-sim":
		return newGradeSim(seed, seconds)
	case "fleet-replay":
		return newFleetReplay(seed, seconds, dir), nil
	}
	return nil, fmt.Errorf("unknown --workload %q (want enrich-cold, grade-sim or fleet-replay)", workload)
}

// endToEnd derives the end-to-end metrics of an untraced phase.
func endToEnd(ph *phase, setup float64) map[string]float64 {
	var lat []float64
	var cov coverage
	done := 0
	for _, o := range ph.outs {
		if o.err != nil {
			continue
		}
		done++
		cov.add(resultCoverage(o.view.Result))
		if ph.class(o) {
			lat = append(lat, o.lat)
		}
	}
	n := float64(len(ph.outs))
	return map[string]float64{
		"setup_s":          setup,
		"jobs_per_s":       ratio(float64(done), ph.elapsed),
		"job_p50_s":        median(lat),
		"tests_total":      float64(cov.tests),
		"p0_cov":           ratio(float64(cov.p0Det), float64(cov.p0Targets)),
		"p1_cov":           ratio(float64(cov.p1Det), float64(cov.p1Targets)),
		"faults_detected":  float64(cov.detected),
		"alloc_mb_per_job": ph.mem.allocBytes / n / (1 << 20),
		"max_rss_mb":       maxRSSMiB(),
		"ok_ratio":         ratio(float64(done), n),
	}
}

// perLayer derives the per-layer metrics from both phases of a traced
// run.
func perLayer(ph *phase, tp *tracedPhase) (map[string]float64, error) {
	out := map[string]float64{}
	for k, v := range ph.layers {
		out[k] = v
	}
	for k, v := range tp.layers {
		out[k] = v
	}
	n := float64(len(ph.outs))
	var queued, runMS []float64
	hits := 0
	for _, o := range ph.outs {
		if o.err != nil {
			continue
		}
		queued = append(queued, o.view.QueuedMS/1e3)
		runMS = append(runMS, o.view.RunMS/1e3)
		if o.view.CacheHit {
			hits++
		}
	}
	out["engine.queued_s"] = mean(queued)
	out["engine.run_s"] = mean(runMS)
	out["engine.cache_hit_ratio"] = ratio(float64(hits), n)
	out["runtime.gc_cycles_per_job"] = ph.mem.gcCycles / n
	out["runtime.gc_pause_s"] = ph.mem.gcPause / n

	self, wall, err := layerSelf(tp.spans)
	if err != nil {
		return nil, err
	}
	jobs := float64(tp.jobs)
	for span, name := range spanMetric {
		out[name] += self[span] / jobs
	}
	out["obs.traced_job_s"] = wall / jobs
	// The system call in the traced replay is the same call the untraced
	// run timed; any slowdown is what tracing and the direct calls
	// beside it cost.
	var sys []float64
	for _, s := range tp.spans {
		if s.Name == tp.sysSpan {
			sys = append(sys, float64(s.End-s.Start)/1e9)
		}
	}
	var untraced []float64
	for _, o := range ph.outs {
		untraced = append(untraced, o.raw)
	}
	out["host.speed_factor"] = mean(ph.speed)
	out["obs.trace_overhead_frac"] = ratio(mean(sys), mean(untraced)) - 1
	for name, xs := range tp.overheads {
		out[name] = median(xs)
	}

	c := tp.counters
	out["pathenum.paths"] = float64(c.PathenumPaths)
	out["pathenum.extensions"] = float64(c.PathenumExtensions)
	out["screen.eliminated"] = float64(c.ScreenEliminated)
	out["partition.p0"] = float64(c.PartitionP0)
	out["partition.p1"] = float64(c.PartitionP1)
	out["core.secondary_accepts"] = float64(c.CoreSecondaryAccepts)
	out["core.secondary_rejects"] = float64(c.CoreSecondaryRejects)
	out["core.p1_accepts"] = float64(c.CoreP1Accepts)
	out["core.cheap_accepts"] = float64(c.CoreCheapAccepts)
	out["core.regenerations"] = float64(c.CoreRegenerations)
	out["core.primary_aborts"] = float64(c.CorePrimaryAborts)
	out["core.accept_ratio"] = ratio(float64(c.CoreSecondaryAccepts), float64(c.CoreSecondaryAccepts+c.CoreSecondaryRejects))
	out["justify.calls"] = float64(c.JustifyCalls)
	out["justify.successes"] = float64(c.JustifySuccesses)
	out["justify.probes"] = float64(c.JustifyProbes)
	out["justify.decisions"] = float64(c.JustifyDecisions)
	out["justify.probes_per_call"] = ratio(float64(c.JustifyProbes), float64(c.JustifyCalls))
	out["justify.success_ratio"] = ratio(float64(c.JustifySuccesses), float64(c.JustifyCalls))
	out["faultsim.tests"] = float64(c.FaultsimTests)
	out["faultsim.faults"] = float64(c.FaultsimFaults)
	out["faultsim.detected"] = float64(c.FaultsimDetected)
	return out, nil
}

// binaryDigest identifies the code under test: a prefix of the sha256 of
// the running executable, which run.sh builds from the checkout's
// sources. The gate is keyed by it, so it only ever compares runs of
// identical code, and a change that moves a gated figure starts a fresh
// record instead of failing against the old code's.
func binaryDigest() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// determinismGate compares a run's deterministic values with the first
// run of the same code, workload, seed and length in this checkout,
// recording them if this is the first. Any difference fails the run.
func determinismGate(path string, got map[string]float64) error {
	prev, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		b, err := json.Marshal(got)
		if err != nil {
			return err
		}
		return os.WriteFile(path, b, 0o644)
	}
	if err != nil {
		return err
	}
	var want map[string]float64
	if err := json.Unmarshal(prev, &want); err != nil {
		return fmt.Errorf("determinism gate %s: %w", path, err)
	}
	for name, w := range want {
		if g, ok := got[name]; !ok || g != w {
			return fmt.Errorf("determinism gate: %s = %v, an earlier run of this seed gave %v", name, got[name], w)
		}
	}
	return nil
}

func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	return dir
}
