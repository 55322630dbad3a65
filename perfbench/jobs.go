package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/engine"
)

// Workload parameters. Each workload runs a fixed job list whose length
// is its rate times --seconds, so a seed and a run length always give
// the same list, whatever the host's speed.
const (
	enrichCircuit = "s953"
	enrichNP      = 1000
	enrichNP0     = 200
	enrichRate    = 2.0 // jobs per second of --seconds

	gradeCircuit = "s1423"
	gradeNP      = 2000
	gradeNP0     = 700
	gradeTests   = 2048 // random tests per grading job
	gradeRate    = 3.0

	fleetRate = 20.0
	// Every fleetNewEvery-th request is a new small generate job; the
	// rest repeat a spec of the hot set.
	fleetNewEvery = 5
)

// hotOrder is fleet-replay's hot set, most popular first: more specs
// than a backend's LRU holds. A hit's cost is its circuit's prepare,
// which differs several-fold between circuits (and not between seeds).
// s953 takes the top three ranks, about two thirds of all hits, so the
// hit median falls inside one cost group instead of between two.
var hotOrder = []struct {
	circuit string
	seed    int64
}{
	{"s953", 1}, {"s953", 2}, {"s953", 3}, {"s641", 1},
	{"s1196", 1}, {"b09", 1}, {"s641", 2}, {"s1196", 2},
}

const (
	hotNP  = 1000
	hotNP0 = 200
)

// newCircuits are the circuits of fleet-replay's fresh generate jobs.
var newCircuits = []string{"c17", "s27"}

const newNP0 = 10

// jobCount sizes a job list from the run length.
func jobCount(rate float64, seconds int) int {
	return max(1, int(math.Ceil(rate*float64(seconds))))
}

// enrichSpecs is enrich-cold's job list: s953 enrichment jobs with
// distinct seeds drawn from the workload seed, cache bypassed.
func enrichSpecs(seed int64, n int) []engine.Spec {
	rng := rand.New(rand.NewSource(seed))
	specs := make([]engine.Spec, n)
	for i := range specs {
		specs[i] = enrichSpec(rng.Int63n(1 << 40))
	}
	return specs
}

func enrichSpec(seed int64) engine.Spec {
	return engine.Spec{
		Kind: engine.KindEnrich, Circuit: enrichCircuit,
		NP: enrichNP, NP0: enrichNP0, Seed: seed, NoCache: true,
	}
}

// gradeSpecs is grade-sim's job list: each job grades a fresh set of
// random two-pattern tests of c, drawn from the workload seed.
func gradeSpecs(c *circuit.Circuit, seed int64, n int) []engine.Spec {
	rng := rand.New(rand.NewSource(seed))
	specs := make([]engine.Spec, n)
	for i := range specs {
		specs[i] = gradeSpec(c, rng)
	}
	return specs
}

func gradeSpec(c *circuit.Circuit, rng *rand.Rand) engine.Spec {
	tests := make([]string, gradeTests)
	for t := range tests {
		tests[t] = core.RandomTest(c, rng).String()
	}
	return engine.Spec{
		Kind: engine.KindFaultSim, Circuit: gradeCircuit,
		NP: gradeNP, NP0: gradeNP0, Tests: tests, NoCache: true,
	}
}

// hotSet is fleet-replay's set of repeated enrich specs. It does not
// depend on the workload seed: the seed picks the request order.
func hotSet() []engine.Spec {
	specs := make([]engine.Spec, len(hotOrder))
	for i, h := range hotOrder {
		specs[i] = engine.Spec{
			Kind: engine.KindEnrich, Circuit: h.circuit,
			NP: hotNP, NP0: hotNP0, Seed: h.seed,
		}
	}
	return specs
}

// fleetReq is one request of fleet-replay's list.
type fleetReq struct {
	Hot  int // index into hotSet, or -1 for a new generate job
	Spec engine.Spec
}

// fleetReqs is fleet-replay's request list: every fleetNewEvery-th
// request is a new generate job on c17 or s27 with a fresh seed; the
// others repeat a hot spec with Zipf-like popularity (weight 1/(rank+1)).
// How often each hot spec repeats is fixed by the list length; the seed
// shuffles their order and picks the new jobs' seeds, so the work mix
// does not vary between seeds. Lists of one seed and different salts
// differ only in the new jobs' seeds.
func fleetReqs(seed int64, n int, hot []engine.Spec, salt int64) []fleetReq {
	rng := rand.New(rand.NewSource(seed))
	picks := hotPicks(n-n/fleetNewEvery, len(hot))
	rng.Shuffle(len(picks), func(i, j int) { picks[i], picks[j] = picks[j], picks[i] })
	reqs := make([]fleetReq, n)
	for i := range reqs {
		if i%fleetNewEvery == fleetNewEvery-1 {
			k := i / fleetNewEvery
			reqs[i] = fleetReq{Hot: -1, Spec: engine.Spec{
				Kind:    engine.KindGenerate,
				Circuit: newCircuits[k%len(newCircuits)],
				NP0:     newNP0,
				// Past the hot seeds and unique per request and salt, so
				// every new job misses every cache.
				Seed: 1000 + rng.Int63n(1<<40)<<21 + salt<<20 + int64(k),
			}}
			continue
		}
		reqs[i] = fleetReq{Hot: picks[0], Spec: hot[picks[0]]}
		picks = picks[1:]
	}
	return reqs
}

// hotPicks returns m indices into a hot set of k specs, index r
// appearing in proportion to 1/(r+1) with largest-remainder rounding,
// in index order.
func hotPicks(m, k int) []int {
	var total float64
	for r := 0; r < k; r++ {
		total += 1 / float64(r+1)
	}
	counts := make([]int, k)
	rem := make([]float64, k)
	left := m
	for r := range counts {
		exact := float64(m) / total / float64(r+1)
		counts[r] = int(exact)
		rem[r] = exact - float64(counts[r])
		left -= counts[r]
	}
	for ; left > 0; left-- {
		best := 0
		for r := range rem {
			if rem[r] > rem[best] {
				best = r
			}
		}
		counts[best]++
		rem[best] = -1
	}
	picks := make([]int, 0, m)
	for r, c := range counts {
		for ; c > 0; c-- {
			picks = append(picks, r)
		}
	}
	return picks
}

// specKey is a readable identity of a spec for error messages.
func specKey(s engine.Spec) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s/np%d/np0%d/seed%d", s.Kind, s.Circuit, s.NP, s.NP0, s.Seed)
	if len(s.Tests) > 0 {
		fmt.Fprintf(&b, "/tests%d", len(s.Tests))
	}
	return b.String()
}
