package engine

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitsim"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/robust"
)

// memoShapeSpecs are the jobs of the memo sharing tests: every
// procedure over two seeds and collapse on and off, all on one
// (circuit, NP, NP0), so they share two memo entries.
func memoShapeSpecs() []Spec {
	base := Spec{Circuit: "s27", NP: 0, NP0: 4}
	tests := []string{"0110100 -> 1010010", "1111111 -> 0000000", "0x10x01 -> 1100110"}
	var specs []Spec
	for _, collapse := range []bool{false, true} {
		for _, seed := range []int64{1, 2} {
			add := func(s Spec) {
				s.Circuit, s.NP, s.NP0 = base.Circuit, base.NP, base.NP0
				s.Seed, s.Collapse = seed, collapse
				specs = append(specs, s)
			}
			for _, h := range core.Heuristics {
				add(Spec{Kind: KindGenerate, Heuristic: h.String()})
			}
			add(Spec{Kind: KindEnrich})
			add(Spec{Kind: KindEnrich, UseBnB: true})
			add(Spec{Kind: KindFaultSim, Tests: tests})
		}
	}
	return specs
}

// One engine runs every job of a fault-set shape in shuffled order, so
// later jobs take their sets from the memo; each result must marshal
// byte-identical to the same spec on a fresh engine. With four workers
// (and under the race detector) the jobs read the shared entries
// concurrently; no consumer may modify them.
func TestPreparedMemoSharing(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			specs := memoShapeSpecs()
			rand.New(rand.NewSource(int64(workers))).Shuffle(len(specs), func(i, k int) {
				specs[i], specs[k] = specs[k], specs[i]
			})
			e := New(Config{Workers: workers})
			defer e.Close()
			jobs := make([]*Job, len(specs))
			for i, s := range specs {
				j, err := e.Submit(s)
				if err != nil {
					t.Fatal(err)
				}
				jobs[i] = j
			}
			for i, j := range jobs {
				v := waitDone(t, e, j.ID())
				if v.Status != StatusDone {
					t.Fatalf("%+v: status %s: %s", specs[i], v.Status, v.Error)
				}
				got, err := json.Marshal(v.Result)
				if err != nil {
					t.Fatal(err)
				}
				if want := runReport(t, specs[i], Config{Workers: 1}); !bytes.Equal(got, want) {
					t.Errorf("%+v: shared-engine result differs from a fresh engine:\nshared: %s\nfresh:  %s",
						specs[i], got, want)
				}
			}
			// Two shapes (collapse off and on): every other prepare hit,
			// unless concurrent misses on one shape both computed.
			hits := e.metrics.prepareMemo.With("hit").Value()
			misses := e.metrics.prepareMemo.With("miss").Value()
			if hits+misses != int64(len(specs)) || misses < 2 || (workers == 1 && misses != 2) {
				t.Errorf("memo hits=%d misses=%d over %d jobs", hits, misses, len(specs))
			}
			if n := e.prepared.Len(); n != 2 {
				t.Errorf("memo holds %d entries, want 2", n)
			}
			fresh := New(Config{Workers: 1})
			defer fresh.Close()
			c, err := experiments.LoadCircuit("s27")
			if err != nil {
				t.Fatal(err)
			}
			hash := CircuitDigest(c)
			for _, collapse := range []bool{false, true} {
				spec := Spec{NP: 0, NP0: 4, Collapse: collapse}
				shared, ok := e.prepared.Get(preparedKey(hash, spec))
				if !ok {
					t.Fatalf("collapse=%t: shape not memoized", collapse)
				}
				want, _, err := fresh.prepare(context.Background(), c, hash, spec)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := deepDigest(shared), deepDigest(want); got != want {
					t.Errorf("collapse=%t: memo entry was modified by its consumers", collapse)
				}
			}
		})
	}
}

// deepDigest hashes a memo entry whole: its fault digest, counts and
// every fault of every set with all its A(p) cubes.
func deepDigest(ps *preparedSets) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s %d %d %d %d %d\n", ps.faultDigest, ps.p0Size, ps.p1Size, ps.i0, ps.enumerated, ps.eliminated)
	for s, set := range [][]robust.FaultConditions{ps.p0, ps.p1, ps.all} {
		fmt.Fprintf(h, "set%d n=%d\n", s, len(set))
		for i := range set {
			fmt.Fprintf(h, "%d %v\n", set[i].Fault.Dir, set[i].Fault.Path)
			for _, alt := range set[i].Alts {
				fmt.Fprintf(h, "  %v %v\n", alt.Nets, alt.Vals)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// The memo key leaves the seed out because prepare does not read it:
// the same circuit, NP and NP0 give the same sets under any seed.
func TestPrepareIgnoresSeed(t *testing.T) {
	for _, tc := range []struct {
		circuit string
		np, np0 int
	}{{"s27", 0, 4}, {"s641", 400, 100}} {
		c, err := experiments.LoadCircuit(tc.circuit)
		if err != nil {
			t.Fatal(err)
		}
		var first string
		for _, seed := range []int64{1, 2, 7} {
			d, err := experiments.PrepareCircuit(c, experiments.Params{NP: tc.np, NP0: tc.np0, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("digest=%s i0=%d enumerated=%d eliminated=%d",
				faultSetDigest(d.P0, d.P1), d.I0, d.Enumerated, d.Eliminated)
			if seed == 1 {
				first = got
			} else if got != first {
				t.Errorf("%s: seed %d prepares %s, seed 1 prepares %s", tc.circuit, seed, got, first)
			}
		}
	}
}

// Put on a resident key keeps the first value and returns it, so jobs
// whose concurrent misses both prepared one shape share one entry.
func TestLRUFirstInsertWins(t *testing.T) {
	c := newLRU[int](2)
	if got := c.Put("a", 1); got != 1 {
		t.Errorf("Put(a, 1) = %d, want 1", got)
	}
	if got := c.Put("a", 2); got != 1 {
		t.Errorf("Put(a, 2) on resident a = %d, want the first value 1", got)
	}
	c.Put("b", 3)
	c.Put("c", 4)
	if _, ok := c.Get("a"); ok || c.Len() != 2 {
		t.Errorf("after three keys in a 2-entry LRU: a resident=%t, len=%d", ok, c.Len())
	}
}

// loadMemo returns the memo attribute of a finished job's load span.
func loadMemo(t *testing.T, j *Job) string {
	t.Helper()
	for _, s := range j.TraceView().Spans {
		if s.Name == "load" {
			return s.Attrs["memo"]
		}
	}
	t.Fatalf("job %s has no load span", j.ID())
	return ""
}

// A named circuit is loaded and digested once per engine: the second
// job takes both from the memo, and the memoized digest is the one a
// fresh LoadCircuit gives.
func TestCircuitMemo(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	c, err := experiments.LoadCircuit("s27")
	if err != nil {
		t.Fatal(err)
	}
	want := CircuitDigest(c)
	for i, memo := range []string{"miss", "hit"} {
		j, err := e.Submit(Spec{Kind: KindEnrich, Circuit: "s27", NP0: 4, Seed: int64(i + 1), NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		v := waitDone(t, e, j.ID())
		if v.Status != StatusDone {
			t.Fatalf("job %d: status %s: %s", i, v.Status, v.Error)
		}
		if got := loadMemo(t, j); got != memo {
			t.Errorf("job %d: load memo=%q, want %q", i, got, memo)
		}
		if v.Result.CircuitHash != want {
			t.Errorf("job %d: circuit hash %s, want %s", i, v.Result.CircuitHash, want)
		}
	}
	lc, ok := e.circuits.Get("s27")
	if !ok || lc.digest != want || CircuitDigest(lc.c) != want {
		t.Errorf("memo entry resident=%t digest=%s, want %s", ok, lc.digest, want)
	}
	// An inline circuit bypasses the memo: a miss that stores nothing.
	j, err := e.Submit(Spec{Kind: KindEnrich, Circ: c, NP0: 4, Seed: 1, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if v := waitDone(t, e, j.ID()); v.Status != StatusDone {
		t.Fatalf("inline job: status %s: %s", v.Status, v.Error)
	}
	if got := loadMemo(t, j); got != "miss" || e.circuits.Len() != 1 {
		t.Errorf("inline circuit: load memo=%q, memo holds %d entries", got, e.circuits.Len())
	}
}

// A circuit that fails to load is not memoized.
func TestCircuitMemoSkipsFailedLoad(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	v, err := e.RunJob(context.Background(), Spec{Kind: KindEnrich, Circuit: "no-such-circuit", NP0: 4})
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusFailed {
		t.Fatalf("status %s, want failed", v.Status)
	}
	if _, ok := e.circuits.Get("no-such-circuit"); ok || e.circuits.Len() != 0 {
		t.Errorf("failed load memoized (memo holds %d entries)", e.circuits.Len())
	}
}

// Fault simulation and enrichment jobs share one memoized circuit from
// four workers at once (run under the race detector by make race);
// every result must marshal byte-identical to the same spec on a fresh
// engine.
func TestCircuitMemoConcurrent(t *testing.T) {
	c, err := experiments.LoadCircuit("s641")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	tests := make([]string, 130)
	for i := range tests {
		tests[i] = core.RandomTest(c, rng).String()
	}
	var specs []Spec
	for seed := int64(1); seed <= 3; seed++ {
		specs = append(specs,
			Spec{Kind: KindEnrich, Circuit: "s641", NP: 200, NP0: 50, Seed: seed, NoCache: true},
			Spec{Kind: KindFaultSim, Circuit: "s641", NP: 200, NP0: 50, Tests: tests[seed*10:], NoCache: true})
	}
	e := New(Config{Workers: 4})
	defer e.Close()
	jobs := make([]*Job, len(specs))
	for i, s := range specs {
		if jobs[i], err = e.Submit(s); err != nil {
			t.Fatal(err)
		}
	}
	for i, j := range jobs {
		v := waitDone(t, e, j.ID())
		if v.Status != StatusDone {
			t.Fatalf("%s job %d: status %s: %s", specs[i].Kind, i, v.Status, v.Error)
		}
		got, err := json.Marshal(v.Result)
		if err != nil {
			t.Fatal(err)
		}
		if want := runReport(t, specs[i], Config{Workers: 1}); !bytes.Equal(got, want) {
			t.Errorf("%s job %d: result on the shared circuit differs from a fresh engine", specs[i].Kind, i)
		}
	}
	if n := e.circuits.Len(); n != 1 {
		t.Errorf("memo holds %d circuits, want 1", n)
	}
}

// A generation job and a fault simulation job of one shape grade with
// one compiled program, built by the first and reused by the second;
// an enrichment job of the shape builds none.
func TestProgramSharedAcrossKinds(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	c, err := experiments.LoadCircuit("s27")
	if err != nil {
		t.Fatal(err)
	}
	shape := Spec{Circuit: "s27", NP0: 4, NoCache: true}
	key := preparedKey(CircuitDigest(c), shape)
	var built *bitsim.Program
	for i, kind := range []Kind{KindEnrich, KindGenerate, KindFaultSim} {
		spec := shape
		spec.Kind, spec.Seed = kind, int64(i+1)
		if kind == KindFaultSim {
			spec.Tests = []string{"0110100 -> 1010010", "0x10x01 -> 1100110"}
		}
		v, err := e.RunJob(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if v.Status != StatusDone {
			t.Fatalf("%s: status %s: %s", kind, v.Status, v.Error)
		}
		ps, ok := e.prepared.Get(key)
		if !ok {
			t.Fatalf("%s: shape not memoized", kind)
		}
		switch {
		case kind == KindEnrich && ps.prog != nil:
			t.Errorf("enrichment compiled a program")
		case kind == KindGenerate:
			built = ps.prog
			if built == nil {
				t.Errorf("generation graded without compiling")
			}
		case kind == KindFaultSim && ps.prog != built:
			t.Errorf("fault simulation compiled a second program")
		}
	}
}

// Four workers grade one shape at once (run under the race detector by
// make race): the memo holds one entry with one program, and every
// result marshals byte-identical to the same spec on a fresh engine.
func TestProgramMemoConcurrent(t *testing.T) {
	c, err := experiments.LoadCircuit("s641")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	tests := make([]string, 150)
	for i := range tests {
		tests[i] = core.RandomTest(c, rng).String()
	}
	var specs []Spec
	for k := 0; k < 4; k++ {
		specs = append(specs,
			Spec{Kind: KindFaultSim, Circuit: "s641", NP: 200, NP0: 50, Tests: tests[k*20:], NoCache: true},
			Spec{Kind: KindGenerate, Circuit: "s641", NP: 200, NP0: 50, Seed: int64(k + 1), NoCache: true})
	}
	e := New(Config{Workers: 4})
	defer e.Close()
	jobs := make([]*Job, len(specs))
	for i, s := range specs {
		if jobs[i], err = e.Submit(s); err != nil {
			t.Fatal(err)
		}
	}
	for i, j := range jobs {
		v := waitDone(t, e, j.ID())
		if v.Status != StatusDone {
			t.Fatalf("%s job %d: status %s: %s", specs[i].Kind, i, v.Status, v.Error)
		}
		got, err := json.Marshal(v.Result)
		if err != nil {
			t.Fatal(err)
		}
		if want := runReport(t, specs[i], Config{Workers: 1}); !bytes.Equal(got, want) {
			t.Errorf("%s job %d: result graded by the shared program differs from a fresh engine", specs[i].Kind, i)
		}
	}
	ps, ok := e.prepared.Get(preparedKey(CircuitDigest(c), specs[0]))
	if !ok || e.prepared.Len() != 1 || ps.prog == nil {
		t.Errorf("memo holds %d entries; shape resident=%t with a program=%t", e.prepared.Len(), ok, ok && ps.prog != nil)
	}
}
