package engine

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
)

// A finished grading job keeps only its wire result. Forty s1423
// faultsim jobs of 2,048 random tests each, finished and held, must
// grow the post-GC heap by less than 24 KiB per job: the result's
// first-detect list and the job's bookkeeping. The result's tests
// share the submitted lines' array; a copy of it, 32 KiB of string
// headers, breaks the bound, and a result that also kept the parsed
// tests (two value slices per test) holds about half a megabyte.
func TestFinishedGradeJobRetention(t *testing.T) {
	const (
		jobs     = 40
		tests    = 2048
		perJobKB = 24
	)
	c, err := experiments.LoadCircuit("s1423")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	specs := make([]Spec, jobs+1)
	for i := range specs {
		lines := make([]string, tests)
		for k := range lines {
			lines[k] = core.RandomTest(c, rng).String()
		}
		specs[i] = Spec{Kind: KindFaultSim, Circuit: "s1423", NP: 2000, NP0: 700, Tests: lines, NoCache: true}
	}
	e := New(Config{Workers: 1})
	defer e.Close()
	run := func(s Spec) JobView {
		v, err := e.RunJob(context.Background(), s)
		if err != nil || v.Status != StatusDone {
			t.Fatalf("run: %s %s, %v", v.Status, v.Error, err)
		}
		return v
	}
	// The first job fills the circuit and prepare memos, which every
	// later job shares.
	run(specs[0])
	before := liveHeap()
	views := make([]JobView, jobs)
	for i := range views {
		views[i] = run(specs[i+1])
	}
	after := liveHeap()
	perJob := (int64(after) - int64(before)) / jobs
	t.Logf("post-GC heap: %d -> %d bytes, %d bytes per finished job", before, after, perJob)
	if perJob >= perJobKB<<10 {
		t.Errorf("each finished grading job retains %d bytes, want < %d KiB", perJob, perJobKB)
	}
	runtime.KeepAlive(views)
	runtime.KeepAlive(specs)
}

// liveHeap returns HeapAlloc after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
