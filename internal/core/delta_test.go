package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/robust"
)

// deltas appends to out, for each candidate, the fewest new value
// positions any of its alternatives adds to the cube (nΔ, Section 2.2),
// computed from scratch: the oracle of deltaIndex.
func deltas(faults []robust.FaultConditions, cand []int, cube *robust.Cube, out []int) []int {
	for _, fi := range cand {
		best := math.MaxInt
		for a := range faults[fi].Alts {
			best = min(best, cube.NewlySpecified(&faults[fi].Alts[a]))
		}
		out = append(out, best)
	}
	return out
}

// firstMin returns the first index of the smallest element: the pick
// of a linear scan, the oracle of pickTree.
func firstMin(xs []int) int {
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}

// FuzzDeltaIndex checks deltaIndex against its oracles. It plays a
// test's secondary loop over two phases, merging the picked
// candidate's alternative into the cube when the data says so; before
// every pick, each remaining candidate's maintained nΔ must equal
// deltas recomputed from scratch, and the pick must equal firstMin
// over those values.
func FuzzDeltaIndex(f *testing.F) {
	for i, src := range bench.Corpus {
		f.Add(src, []byte{byte(i), 0, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	}
	f.Fuzz(func(t *testing.T, src string, data []byte) {
		c, err := bench.ParseCombinationalString("fuzz", src)
		if err != nil || len(c.Lines) > 512 || len(c.PIs) == 0 || len(data) == 0 {
			return
		}
		fcs := screened(t, c, 200)
		if len(fcs) == 0 {
			return
		}
		k := 0
		next := func() int {
			b := data[k%len(data)]
			k++
			return int(b)
		}
		x := newDeltaIndex(len(c.Lines), fcs)
		primary := next() % len(fcs)
		cube := fcs[primary].Alts[next()%len(fcs[primary].Alts)]
		x.startTest(&cube)
		for phase := range 2 {
			var cand []int
			for fi := range fcs {
				if fi != primary && fi%2 == phase {
					cand = append(cand, fi)
				}
			}
			x.startPhase(cand)
			left := slices.Clone(cand)
			for len(left) > 0 {
				want := deltas(fcs, left, &cube, nil)
				for p, fi := range left {
					if got := x.tree.key[x.pos[fi]]; int(got) != want[p] {
						t.Fatalf("phase %d: fault %d: maintained nΔ %d, recomputed %d", phase, fi, got, want[p])
					}
				}
				pick := firstMin(want)
				if got := x.pop(); got != left[pick] {
					t.Fatalf("phase %d: picked fault %d, first minimum is fault %d", phase, got, left[pick])
				}
				fi := left[pick]
				left = slices.Delete(left, pick, pick+1)
				if b := next(); b%2 == 1 {
					alt := &fcs[fi].Alts[b/2%len(fcs[fi].Alts)]
					if merged, ok := cube.Merge(alt); ok {
						x.merged(&cube, &merged)
						cube = merged
					}
				}
			}
		}
	})
}

// TestPickTreeFirstMin checks the tournament tree's picks against
// firstMin under random lowered keys, at sizes on both sides of a
// power of two.
func TestPickTreeFirstMin(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 9, 100} {
		var tree pickTree
		keys := tree.keys(n)
		ref := make([]int, n)
		for p := range keys {
			ref[p] = (p * 7919) % 5
			keys[p] = int32(ref[p])
		}
		tree.build()
		live := make([]bool, n)
		for p := range live {
			live[p] = true
		}
		for step := range n {
			// Lower one live key, as an accept does.
			if p := (step * 31) % n; live[p] && ref[p] > 0 {
				ref[p]--
				tree.lower(p, int32(ref[p]))
			}
			masked := make([]int, n)
			for p := range masked {
				masked[p] = math.MaxInt
				if live[p] {
					masked[p] = ref[p]
				}
			}
			want := firstMin(masked)
			if got := tree.pop(); got != want {
				t.Fatalf("n=%d step %d: popped %d, want %d", n, step, got, want)
			}
			live[want] = false
		}
	}
}
