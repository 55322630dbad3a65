package core

import (
	"math"
	"slices"

	"repro/internal/robust"
	"repro/internal/tval"
)

// deltaIndex keeps nΔ (Section 2.2) of every target alternative
// against the current test's cube, in time proportional to what the
// cube's changes touch.
//
// nΔ(q, o) is the sum over o's nets n of tval.NewlySpecified(q[n],
// o[n]), and a merge changes q only on the merged alternative's nets,
// each to a value that specifies at least what it did. So a change of
// q on net n moves exactly the terms of the alternatives requiring n,
// each by a non-positive amount: nΔ only falls within a test, and a
// fault's best nΔ is lowered by its changed alternatives alone.
type deltaIndex struct {
	// Fault f's alternatives are numbered altStart[f] to
	// altStart[f+1]-1; altFault maps one back to its fault.
	altStart, altFault []int32
	// The terms on net n are terms[netStart[n]:netStart[n+1]], each
	// alt<<termBits | the alternative's requirement on n.
	netStart []int32
	terms    []uint32
	// empty[a] is alternative a's nΔ against the empty cube; nd[a] is
	// its nΔ against the current cube.
	empty, nd []int32

	// The phase's candidates in their order: pos[f] is fault f's
	// position in cand, or -1 when f is not a remaining one, and tree
	// picks among them.
	cand []int
	pos  []int32
	tree pickTree
}

// termBits is the width of a requirement (a tval.Triple) in a term.
const termBits = 6

// newDeltaIndex indexes the alternatives of faults by net, for a
// circuit of nets line IDs.
func newDeltaIndex(nets int, faults []robust.FaultConditions) *deltaIndex {
	x := &deltaIndex{
		altStart: make([]int32, len(faults)+1),
		netStart: make([]int32, nets+1),
		pos:      make([]int32, len(faults)),
	}
	alts := 0
	for f := range faults {
		x.altStart[f] = int32(alts)
		for a := range faults[f].Alts {
			for _, n := range faults[f].Alts[a].Nets {
				x.netStart[n+1]++
			}
		}
		alts += len(faults[f].Alts)
	}
	x.altStart[len(faults)] = int32(alts)
	if alts >= 1<<(32-termBits) {
		panic("core: too many target alternatives to index")
	}
	for n := range nets {
		x.netStart[n+1] += x.netStart[n]
	}
	x.terms = make([]uint32, x.netStart[nets])
	x.altFault = make([]int32, alts)
	x.empty = make([]int32, alts)
	x.nd = make([]int32, alts)
	fill := append([]int32(nil), x.netStart[:nets]...)
	for f := range faults {
		x.pos[f] = -1
		for a := range faults[f].Alts {
			id := x.altStart[f] + int32(a)
			alt := &faults[f].Alts[a]
			x.altFault[id] = int32(f)
			for i, n := range alt.Nets {
				x.terms[fill[n]] = uint32(id)<<termBits | uint32(alt.Vals[i])
				fill[n]++
				x.empty[id] += int32(tval.NewlySpecified(tval.TX, alt.Vals[i]))
			}
		}
	}
	return x
}

// startTest sets every alternative's nΔ against the test's first cube.
func (x *deltaIndex) startTest(cube *robust.Cube) {
	copy(x.nd, x.empty)
	x.merged(&robust.Cube{}, cube)
}

// startPhase makes cand the phase's candidates, keyed by best nΔ.
func (x *deltaIndex) startPhase(cand []int) {
	x.cand = cand
	keys := x.tree.keys(len(cand))
	for p, f := range cand {
		x.pos[f] = int32(p)
		keys[p] = x.best(f)
	}
	x.tree.build()
}

// best returns fault f's best nΔ: the least over its alternatives.
func (x *deltaIndex) best(f int) int32 {
	best := int32(math.MaxInt32)
	for _, d := range x.nd[x.altStart[f]:x.altStart[f+1]] {
		best = min(best, d)
	}
	return best
}

// pop removes the phase's next candidate, the first with the least
// best nΔ, and returns it.
func (x *deltaIndex) pop() int {
	f := x.cand[x.tree.pop()]
	x.pos[f] = -1
	return f
}

// merged moves nΔ from cube old to cube new, a merge of old with one
// alternative (new requires at least what old does on every net), and
// lowers the key of every phase candidate whose best nΔ fell.
func (x *deltaIndex) merged(old, new *robust.Cube) {
	i := 0
	for j, n := range new.Nets {
		for i < len(old.Nets) && old.Nets[i] < n {
			i++
		}
		was := tval.TX
		if i < len(old.Nets) && old.Nets[i] == n {
			was = old.Vals[i]
		}
		now := new.Vals[j]
		if now == was {
			continue
		}
		for _, t := range x.terms[x.netStart[n]:x.netStart[n+1]] {
			req := tval.Triple(t & (1<<termBits - 1))
			d := tval.NewlySpecified(now, req) - tval.NewlySpecified(was, req)
			if d == 0 {
				continue
			}
			a := t >> termBits
			x.nd[a] += int32(d)
			if p := x.pos[x.altFault[a]]; p >= 0 && x.nd[a] < x.tree.key[p] {
				x.tree.lower(int(p), x.nd[a])
			}
		}
	}
}

// pickTree is a tournament tree over positions 0 to n-1 with int32
// keys: its root names the first position with the least key, which is
// the pick of a linear first-minimum scan, in O(log n) per change.
type pickTree struct {
	// key[p] is position p's key, removed (the largest int32) once
	// popped and for padding positions. The leaves are win[size:],
	// win[size+p] == p, and each internal node j holds the winner of
	// its children 2j and 2j+1.
	key  []int32
	win  []int32
	size int
}

const removed = math.MaxInt32

// keys sizes the tree for n positions and returns their keys to fill
// before build.
func (t *pickTree) keys(n int) []int32 {
	t.size = 1
	for t.size < n {
		t.size *= 2
	}
	t.key = slices.Grow(t.key[:0], t.size)[:t.size]
	t.win = slices.Grow(t.win[:0], 2*t.size)[:2*t.size]
	for p := n; p < t.size; p++ {
		t.key[p] = removed
	}
	return t.key[:n]
}

// build computes every internal node from the keys.
func (t *pickTree) build() {
	for p := range t.size {
		t.win[t.size+p] = int32(p)
	}
	for j := t.size - 1; j >= 1; j-- {
		t.win[j] = t.winner(2 * j)
	}
}

// winner returns the winner of sibling nodes j and j+1: the lesser
// key, the left one (the lower position) on a tie.
func (t *pickTree) winner(j int) int32 {
	l, r := t.win[j], t.win[j+1]
	if t.key[r] < t.key[l] {
		return r
	}
	return l
}

// pop removes the first position with the least key and returns it.
func (t *pickTree) pop() int {
	p := int(t.win[1])
	t.key[p] = removed
	for j := (t.size + p) / 2; j >= 1; j /= 2 {
		t.win[j] = t.winner(2 * j)
	}
	return p
}

// lower sets position p's key to k, no greater than its key.
func (t *pickTree) lower(p int, k int32) {
	t.key[p] = k
	for j := (t.size + p) / 2; j >= 1; j /= 2 {
		w := t.winner(2 * j)
		if w == t.win[j] && int(w) != p {
			// The winner here did not change, so no node above does.
			return
		}
		t.win[j] = w
	}
}
