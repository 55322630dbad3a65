// Package faults defines path delay faults and the partition of a
// fault set into multiple sets of target faults.
//
// A path delay fault is a (path, transition direction) pair: the
// slow-to-rise fault of a path is tested by launching a rising
// transition at the path's source, the slow-to-fall fault by a falling
// transition. The partition logic implements Section 3.1 of the DATE
// 2002 paper: the first target set P0 holds all faults on paths of
// length ≥ L_{i0}, where i0 is the smallest index with
// N_p(L_{i0}) ≥ N_{P0}; the second set P1 holds the rest.
package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/circuit"
)

// Direction is the transition launched at the path source.
type Direction uint8

// The two fault directions of every path.
const (
	SlowToRise Direction = iota // rising transition 0→1 at the source
	SlowToFall                  // falling transition 1→0 at the source
)

func (d Direction) String() string {
	if d == SlowToRise {
		return "STR"
	}
	return "STF"
}

// Fault is one path delay fault.
type Fault struct {
	// Path is the sequence of line IDs from a primary input line to a
	// primary-output end line.
	Path []int
	// Dir is the transition direction at the source.
	Dir Direction
	// Length is the path length under the delay model in effect when
	// the fault was enumerated.
	Length int
}

// Key returns a canonical string identity for the fault, usable as a
// map key.
func (f Fault) Key() string {
	var sb strings.Builder
	sb.WriteString(f.Dir.String())
	for _, l := range f.Path {
		sb.WriteByte(':')
		sb.WriteString(strconv.Itoa(l))
	}
	return sb.String()
}

// Source returns the first line of the path.
func (f *Fault) Source() int { return f.Path[0] }

// Sink returns the last line of the path.
func (f *Fault) Sink() int { return f.Path[len(f.Path)-1] }

// String formats the fault with line names.
func (f *Fault) Format(c *circuit.Circuit) string {
	return fmt.Sprintf("%s %s len=%d", f.Dir, c.PathString(f.Path), f.Length)
}

// SortByLengthDesc orders faults by decreasing length; ties are broken
// by path then direction so the order is deterministic.
func SortByLengthDesc(fs []Fault) {
	sort.SliceStable(fs, func(i, j int) bool {
		if fs[i].Length != fs[j].Length {
			return fs[i].Length > fs[j].Length
		}
		return lessPath(&fs[i], &fs[j])
	})
}

func lessPath(a, b *Fault) bool {
	for k := 0; k < len(a.Path) && k < len(b.Path); k++ {
		if a.Path[k] != b.Path[k] {
			return a.Path[k] < b.Path[k]
		}
	}
	if len(a.Path) != len(b.Path) {
		return len(a.Path) < len(b.Path)
	}
	return a.Dir < b.Dir
}

// LengthCount is one row of the length profile (the paper's Table 2):
// Count faults of exactly length L, Cumulative faults of length ≥ L.
type LengthCount struct {
	L          int
	Count      int
	Cumulative int
}

// Profile returns the length profile of a fault set, longest length
// first. Cumulative implements N_p(L_i).
func Profile(fs []Fault) []LengthCount {
	byLen := make(map[int]int)
	for i := range fs {
		byLen[fs[i].Length]++
	}
	lengths := make([]int, 0, len(byLen))
	for l := range byLen {
		lengths = append(lengths, l)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(lengths)))
	out := make([]LengthCount, len(lengths))
	cum := 0
	for i, l := range lengths {
		cum += byLen[l]
		out[i] = LengthCount{L: l, Count: byLen[l], Cumulative: cum}
	}
	return out
}

// Partition splits fs into target sets P0 and P1 following the paper:
// P0 takes every fault on paths of length ≥ L_{i0} where i0 is the
// smallest index with N_p(L_{i0}) ≥ nP0; P1 takes the rest. It returns
// the two sets and i0. If the whole set is smaller than nP0, P0 is all
// of fs, P1 is empty and i0 is the index of the smallest length.
func Partition(fs []Fault, nP0 int) (p0, p1 []Fault, i0 int) {
	if len(fs) == 0 {
		return nil, nil, 0
	}
	prof := Profile(fs)
	i0 = cutIndex(prof, nP0)
	sets := split(fs, []int{prof[i0].L})
	return sets[0], sets[1], i0
}

// PartitionK generalizes Partition to k target sets (the paper notes
// that "it is possible to partition P into a larger number of
// subsets"). sizes[i] is the minimum cumulative fault count of sets
// 0..i; the k-th set receives the remainder. len(sizes) must be k-1.
func PartitionK(fs []Fault, sizes []int) [][]Fault {
	if len(fs) == 0 {
		return nil
	}
	prof := Profile(fs)
	// cuts[i] is the minimum length admitted to sets 0..i.
	cuts := make([]int, len(sizes))
	for si, want := range sizes {
		cuts[si] = prof[cutIndex(prof, want)].L
	}
	return split(fs, cuts)
}

// cutIndex returns the smallest index i of the profile with
// N_p(L_i) ≥ want, or the last index when no length reaches it.
func cutIndex(prof []LengthCount, want int) int {
	for i, row := range prof {
		if row.Cumulative >= want {
			return i
		}
	}
	return len(prof) - 1
}

// split puts each fault, in order, into the first set whose minimum
// length cuts[s] it reaches; set len(cuts) receives the rest.
func split(fs []Fault, cuts []int) [][]Fault {
	out := make([][]Fault, len(cuts)+1)
	for i := range fs {
		s := 0
		for s < len(cuts) && fs[i].Length < cuts[s] {
			s++
		}
		out[s] = append(out[s], fs[i])
	}
	return out
}
