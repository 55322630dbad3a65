package robust

import (
	"slices"

	"repro/internal/circuit"
	"repro/internal/faults"
)

// FaultConditions bundles a fault with its surviving A(p) alternatives.
type FaultConditions struct {
	Fault faults.Fault
	// Alts are the alternative requirement cubes; a test detects the
	// fault iff it satisfies at least one alternative. Non-empty for
	// every fault returned by Screen.
	Alts []Cube
}

// Screen computes A(p) for every fault and eliminates undetectable
// faults, in the two steps of Section 3.1:
//
//  1. faults whose conditions conflict directly (Conditions returns no
//     alternative);
//  2. faults whose conditions imply conflicting values on some line
//     (the implication fixpoint finds a contradiction for every
//     alternative).
//
// It returns the surviving faults with their alternatives, preserving
// input order, plus the number eliminated.
//
// The faults are screened along the trie of their paths, with one
// Implier: the closure of every (path prefix, alternative) pair is
// extended once from its parent's, by the requirements the prefix's
// last gate added, and a conflict prunes every fault below the pair.
// Since the closure is unique and monotone, a fault keeps exactly the
// alternatives of Conditions whose own closure is consistent, in the
// same order.
func Screen(c *circuit.Circuit, fs []faults.Fault) (kept []FaultConditions, eliminated int) {
	s := &screener{
		c:   c,
		fs:  fs,
		ord: make([]int, len(fs)),
		im:  NewImplier(c),
		out: make([]FaultConditions, len(fs)),
	}
	depth := 0
	for i := range fs {
		s.ord[i] = i
		depth = max(depth, len(fs[i].Path))
	}
	s.levels = make([]level, depth)
	// (Dir, Path) order makes the faults below every trie node a
	// contiguous range of ord.
	slices.SortFunc(s.ord, func(i, j int) int {
		if fs[i].Dir != fs[j].Dir {
			return int(fs[i].Dir) - int(fs[j].Dir)
		}
		return slices.Compare(fs[i].Path, fs[j].Path)
	})
	for lo := 0; lo < len(fs); {
		f := &fs[s.ord[lo]]
		hi := lo + 1
		for hi < len(fs) && fs[s.ord[hi]].Dir == f.Dir && fs[s.ord[hi]].Path[0] == f.Path[0] {
			hi++
		}
		root := &s.levels[0]
		root.start(c, f)
		if s.im.Extend(&root.alts[0].step) {
			s.visit(0, lo, hi, root, 0)
		}
		s.im.Rollback(0)
		lo = hi
	}
	// Compact the survivors in place, in input order; kept stays nil
	// when every fault is eliminated.
	for i := range s.out {
		if len(s.out[i].Alts) == 0 {
			eliminated++
			continue
		}
		s.out[i].Fault = fs[i]
		kept = append(s.out[:len(kept)], s.out[i])
	}
	return kept, eliminated
}

// screener is the state of one Screen walk.
type screener struct {
	c      *circuit.Circuit
	fs     []faults.Fault
	ord    []int // fault indices in (Dir, Path) order
	im     *Implier
	levels []level // the alternative list of the visited prefix, by depth
	out    []FaultConditions
}

// visit walks the trie below the pair (prefix, alternative a of l):
// the faults ord[lo:hi], whose paths share their first d+1 lines. The
// Implier holds the closure of a's cube, which is consistent.
func (s *screener) visit(d, lo, hi int, l *level, a int) {
	for ; lo < hi && len(s.fs[s.ord[lo]].Path) == d+1; lo++ {
		fc := &s.out[s.ord[lo]]
		fc.Alts = append(fc.Alts, l.alts[a].cube.Clone())
	}
	for lo < hi {
		path := s.fs[s.ord[lo]].Path
		end := lo + 1
		for end < hi && s.fs[s.ord[end]].Path[d+1] == path[d+1] {
			end++
		}
		if s.c.Lines[path[d+1]].Kind == circuit.LineBranch {
			// Stem to branch: same alternatives, same closure.
			s.visit(d+1, lo, end, l, a)
		} else {
			next := &s.levels[d+1]
			next.step(s.c, l, path[d], path[d+1])
			for b := range next.alts {
				if next.alts[b].from != a {
					continue
				}
				mark := s.im.Mark()
				if s.im.Extend(&next.alts[b].step) {
					s.visit(d+1, lo, end, next, b)
				}
				s.im.Rollback(mark)
			}
		}
		lo = end
	}
}
