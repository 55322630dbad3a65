// Package robust computes the necessary value assignments A(p) for
// robust detection of path delay faults, and screens undetectable
// faults by direct conflicts and by implications (Sections 2.1 and 3.1
// of the DATE 2002 paper).
package robust

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/circuit"
	"repro/internal/tval"
)

// Cube is a conjunction of value-triple requirements on nets, the
// representation of A(p) and of unions ∪A(p_j). Nets are sorted
// ascending; Vals[i] is the requirement on Nets[i].
type Cube struct {
	Nets []int
	Vals []tval.Triple
}

// Len returns the number of constrained nets.
func (q *Cube) Len() int { return len(q.Nets) }

// Get returns the requirement on a net (TX when unconstrained).
func (q *Cube) Get(net int) tval.Triple {
	i := sort.SearchInts(q.Nets, net)
	if i < len(q.Nets) && q.Nets[i] == net {
		return q.Vals[i]
	}
	return tval.TX
}

// Clone returns a deep copy.
func (q *Cube) Clone() Cube {
	return Cube{
		Nets: append([]int(nil), q.Nets...),
		Vals: append([]tval.Triple(nil), q.Vals...),
	}
}

// add merges a requirement on one net into the cube, keeping order.
// It reports false on conflict.
func (q *Cube) add(net int, v tval.Triple) bool {
	i := sort.SearchInts(q.Nets, net)
	if i < len(q.Nets) && q.Nets[i] == net {
		m, ok := q.Vals[i].Merge(v)
		if !ok {
			return false
		}
		q.Vals[i] = m
		return true
	}
	q.Nets = append(q.Nets, 0)
	q.Vals = append(q.Vals, 0)
	copy(q.Nets[i+1:], q.Nets[i:])
	copy(q.Vals[i+1:], q.Vals[i:])
	q.Nets[i] = net
	q.Vals[i] = v
	return true
}

// Merge intersects two cubes. ok is false when they conflict on some
// net.
func (q *Cube) Merge(o *Cube) (merged Cube, ok bool) {
	merged = Cube{
		Nets: make([]int, 0, len(q.Nets)+len(o.Nets)),
		Vals: make([]tval.Triple, 0, len(q.Nets)+len(o.Nets)),
	}
	i, j := 0, 0
	for i < len(q.Nets) && j < len(o.Nets) {
		switch {
		case q.Nets[i] < o.Nets[j]:
			merged.Nets = append(merged.Nets, q.Nets[i])
			merged.Vals = append(merged.Vals, q.Vals[i])
			i++
		case q.Nets[i] > o.Nets[j]:
			merged.Nets = append(merged.Nets, o.Nets[j])
			merged.Vals = append(merged.Vals, o.Vals[j])
			j++
		default:
			m, mok := q.Vals[i].Merge(o.Vals[j])
			if !mok {
				return merged, false
			}
			merged.Nets = append(merged.Nets, q.Nets[i])
			merged.Vals = append(merged.Vals, m)
			i, j = i+1, j+1
		}
	}
	merged.Nets = append(merged.Nets, q.Nets[i:]...)
	merged.Vals = append(merged.Vals, q.Vals[i:]...)
	merged.Nets = append(merged.Nets, o.Nets[j:]...)
	merged.Vals = append(merged.Vals, o.Vals[j:]...)
	return merged, true
}

// NewlySpecified returns nΔ: the number of value positions that o
// requires beyond what q already requires. It is the cost measure of
// the value-based secondary target ordering (Section 2.2).
func (q *Cube) NewlySpecified(o *Cube) int {
	n := 0
	i := 0
	for j := 0; j < len(o.Nets); j++ {
		for i < len(q.Nets) && q.Nets[i] < o.Nets[j] {
			i++
		}
		base := tval.TX
		if i < len(q.Nets) && q.Nets[i] == o.Nets[j] {
			base = q.Vals[i]
		}
		n += tval.NewlySpecified(base, o.Vals[j])
	}
	return n
}

// CoveredBy reports whether simulated line triples satisfy every
// requirement of the cube. sim is indexed by line ID (requirements are
// on net lines).
func (q *Cube) CoveredBy(sim []tval.Triple) bool {
	for i, net := range q.Nets {
		if !q.Vals[i].Covers(sim[net]) {
			return false
		}
	}
	return true
}

// DetectedBy reports whether simulated line triples detect the fault:
// they cover one of its alternatives. It is the one detection
// predicate of the scalar simulation paths.
func (fc *FaultConditions) DetectedBy(sim []tval.Triple) bool {
	for i := range fc.Alts {
		if fc.Alts[i].CoveredBy(sim) {
			return true
		}
	}
	return false
}

// String renders the cube with line names for debugging.
func (q *Cube) Format(c *circuit.Circuit) string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, net := range q.Nets {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s=%s", c.Lines[net].Name, q.Vals[i])
	}
	sb.WriteByte('}')
	return sb.String()
}
