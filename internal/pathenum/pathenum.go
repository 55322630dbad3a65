// Package pathenum enumerates the path delay faults associated with
// the longest paths of a circuit, under a bound N_P on the number of
// faults kept (Section 3.1 of the DATE 2002 paper).
//
// Two variants are implemented:
//
//   - Moderate: the paper's base procedure for circuits with moderate
//     numbers of paths. Paths are grown depth-first from the primary
//     inputs (the first partial path in the list is extended, siblings
//     are appended at the end); whenever the fault count reaches N_P,
//     faults of the shortest complete paths are evicted, never touching
//     the longest complete paths. Partial paths are never evicted, so
//     the variant can be defeated by circuits with huge path counts.
//
//   - DistancePruned: the paper's extension for circuits with large
//     numbers of paths. Every line g carries its distance d(g) to the
//     primary outputs, so a partial path p has an exact upper bound
//     len(p) = length(p) + d(last line) on the length of any complete
//     path extending it. The partial with maximum len(p) is always
//     extended next, and eviction removes entries (partial or complete)
//     with minimum len(p).
//
// Both variants count faults: every path, partial or complete,
// accounts for its slow-to-rise and slow-to-fall fault.
package pathenum

import (
	"container/heap"
	"fmt"

	"repro/internal/circuit"
	"repro/internal/delay"
	"repro/internal/faults"
)

// Mode selects the enumeration variant.
type Mode int

// Enumeration variants.
const (
	Moderate Mode = iota
	DistancePruned
)

func (m Mode) String() string {
	if m == Moderate {
		return "moderate"
	}
	return "distance-pruned"
}

// Config parameterizes enumeration.
type Config struct {
	// MaxFaults is N_P, the bound on the number of faults kept during
	// enumeration; 0 or negative means unbounded.
	MaxFaults int
	// Model is the delay model; nil means delay.Unit.
	Model delay.Model
	// Mode selects the variant.
	Mode Mode
	// MaxExtensions caps the number of path-extension steps as a
	// safety valve for Moderate mode on path-rich circuits; 0 means
	// the default of 4,000,000.
	MaxExtensions int
}

// Stats reports enumeration effort.
type Stats struct {
	Extensions      int // path extension steps performed
	EvictedComplete int // complete paths evicted
	EvictedPartial  int // partial paths evicted (DistancePruned only)
	BudgetHits      int // times the fault budget forced eviction
}

// Result holds the enumerated faults, sorted by decreasing length.
type Result struct {
	Faults []faults.Fault
	Stats  Stats
}

// Distances returns d(line) for every line: the maximum total delay of
// lines that can be appended after the line on a path to a primary
// output. PO-end lines have distance 0. Computed in one reverse pass,
// as in the paper.
func Distances(c *circuit.Circuit, m delay.Model) []int {
	if m == nil {
		m = delay.Unit{}
	}
	d := make([]int, len(c.Lines))
	state := make([]uint8, len(c.Lines)) // 0 new, 1 visiting, 2 done
	var visit func(id int) int
	visit = func(id int) int {
		switch state[id] {
		case 2:
			return d[id]
		case 1:
			panic("pathenum: cycle in line successor graph")
		}
		state[id] = 1
		best := 0
		for _, s := range c.Lines[id].Succs {
			if v := m.LineDelay(c, s) + visit(s); v > best {
				best = v
			}
		}
		d[id] = best
		state[id] = 2
		return best
	}
	for id := range c.Lines {
		visit(id)
	}
	return d
}

type entry struct {
	path     []int
	length   int // accumulated delay of the lines on the path
	bound    int // len(p): length + d(last line)
	complete bool
	evicted  bool
}

// Enumerate runs the configured enumeration.
func Enumerate(c *circuit.Circuit, cfg Config) (*Result, error) {
	if cfg.Model == nil {
		cfg.Model = delay.Unit{}
	}
	if cfg.MaxExtensions == 0 {
		cfg.MaxExtensions = 4_000_000
	}
	switch cfg.Mode {
	case Moderate:
		return enumerateModerate(c, cfg)
	case DistancePruned:
		return enumerateDistance(c, cfg)
	}
	return nil, fmt.Errorf("pathenum: unknown mode %d", cfg.Mode)
}

// finish expands complete paths into two faults each and sorts them.
func finish(entries []*entry, st Stats) *Result {
	var fs []faults.Fault
	for _, e := range entries {
		if e.evicted || !e.complete {
			continue
		}
		for _, dir := range []faults.Direction{faults.SlowToRise, faults.SlowToFall} {
			fs = append(fs, faults.Fault{Path: e.path, Dir: dir, Length: e.length})
		}
	}
	faults.SortByLengthDesc(fs)
	return &Result{Faults: fs, Stats: st}
}

func startEntries(c *circuit.Circuit, m delay.Model, dist []int) []*entry {
	var out []*entry
	for _, pi := range c.PIs {
		ln := &c.Lines[pi]
		d := m.LineDelay(c, pi)
		e := &entry{
			path:     []int{pi},
			length:   d,
			complete: ln.IsPOEnd,
		}
		if dist != nil {
			e.bound = e.length + dist[pi]
		}
		out = append(out, e)
	}
	return out
}

func extendInto(c *circuit.Circuit, m delay.Model, dist []int, e *entry) []*entry {
	succs := c.Lines[e.path[len(e.path)-1]].Succs
	out := make([]*entry, 0, len(succs))
	for _, s := range succs {
		np := make([]int, len(e.path)+1)
		copy(np, e.path)
		np[len(e.path)] = s
		ne := &entry{
			path:     np,
			length:   e.length + m.LineDelay(c, s),
			complete: c.Lines[s].IsPOEnd,
		}
		if dist != nil {
			ne.bound = ne.length + dist[s]
		}
		out = append(out, ne)
	}
	return out
}

// --- Moderate variant ---------------------------------------------------

func enumerateModerate(c *circuit.Circuit, cfg Config) (*Result, error) {
	var st Stats
	list := startEntries(c, cfg.Model, nil)
	live := len(list)

	firstPartial := func() *entry {
		for _, e := range list {
			if !e.evicted && !e.complete {
				return e
			}
		}
		return nil
	}

	for {
		e := firstPartial()
		if e == nil {
			break
		}
		if st.Extensions >= cfg.MaxExtensions {
			return nil, fmt.Errorf("pathenum: moderate enumeration of %s exceeded %d extensions; use DistancePruned mode",
				c.Name, cfg.MaxExtensions)
		}
		st.Extensions++
		children := extendInto(c, cfg.Model, nil, e)
		// The first child replaces the parent in place; the rest are
		// appended at the end of the list, as in the paper's example.
		*e = *children[0]
		if len(children) > 1 {
			list = append(list, children[1:]...)
			live += len(children) - 1
		}
		if cfg.MaxFaults > 0 && 2*live >= cfg.MaxFaults {
			st.BudgetHits++
			live -= evictShortestComplete(list, cfg.MaxFaults, live, &st)
		}
	}
	return finish(list, st), nil
}

// evictShortestComplete removes complete paths in increasing length
// order until the fault count is below the budget, protecting complete
// paths of the maximum complete length. Returns the number evicted.
func evictShortestComplete(list []*entry, maxFaults, live int, st *Stats) int {
	maxComplete := -1
	for _, e := range list {
		if !e.evicted && e.complete && e.length > maxComplete {
			maxComplete = e.length
		}
	}
	evicted := 0
	for 2*(live-evicted) >= maxFaults {
		// Find the shortest non-protected complete path (first in list
		// order among ties, matching the paper's example).
		var victim *entry
		for _, e := range list {
			if e.evicted || !e.complete || e.length >= maxComplete {
				continue
			}
			if victim == nil || e.length < victim.length {
				victim = e
			}
		}
		if victim == nil {
			break // only protected paths remain
		}
		victim.evicted = true
		st.EvictedComplete++
		evicted++
	}
	return evicted
}

// --- Distance-pruned variant ---------------------------------------------

// maxHeap orders entries by decreasing bound (ties by shorter path
// first for determinism).
type maxHeap []*entry

func (h maxHeap) Len() int { return len(h) }
func (h maxHeap) Less(i, j int) bool {
	if h[i].bound != h[j].bound {
		return h[i].bound > h[j].bound
	}
	return len(h[i].path) < len(h[j].path)
}
func (h maxHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *maxHeap) Push(x interface{}) { *h = append(*h, x.(*entry)) }
func (h *maxHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// minHeap orders entries by increasing bound.
type minHeap []*entry

func (h minHeap) Len() int { return len(h) }
func (h minHeap) Less(i, j int) bool {
	if h[i].bound != h[j].bound {
		return h[i].bound < h[j].bound
	}
	return len(h[i].path) > len(h[j].path)
}
func (h minHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *minHeap) Push(x interface{}) { *h = append(*h, x.(*entry)) }
func (h *minHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

func enumerateDistance(c *circuit.Circuit, cfg Config) (*Result, error) {
	var st Stats
	dist := Distances(c, cfg.Model)

	var partials maxHeap
	var all minHeap
	var every []*entry
	live := 0

	// liveByBound tracks how many live entries exist per bound so the
	// maximum live bound is maintained in O(1) amortized.
	liveByBound := make(map[int]int)
	curMaxB := -1

	add := func(e *entry) {
		every = append(every, e)
		heap.Push(&all, e)
		if !e.complete {
			heap.Push(&partials, e)
		}
		live++
		liveByBound[e.bound]++
		if e.bound > curMaxB {
			curMaxB = e.bound
		}
	}
	drop := func(e *entry) {
		e.evicted = true
		live--
		liveByBound[e.bound]--
	}
	maxLiveBound := func() int {
		for curMaxB >= 0 && liveByBound[curMaxB] == 0 {
			curMaxB--
		}
		return curMaxB
	}
	for _, e := range startEntries(c, cfg.Model, dist) {
		add(e)
	}

	popMaxPartial := func() *entry {
		for partials.Len() > 0 {
			e := heap.Pop(&partials).(*entry)
			if !e.evicted {
				return e
			}
		}
		return nil
	}

	evict := func() {
		st.BudgetHits++
		for 2*live >= cfg.MaxFaults {
			// Peek the global min and max bounds among live entries.
			for all.Len() > 0 && all[0].evicted {
				heap.Pop(&all)
			}
			if all.Len() == 0 {
				return
			}
			minB := all[0].bound
			if minB >= maxLiveBound() {
				return // all faults share the same maximum length bound
			}
			victim := heap.Pop(&all).(*entry)
			drop(victim)
			if victim.complete {
				st.EvictedComplete++
			} else {
				st.EvictedPartial++
			}
		}
	}

	for {
		e := popMaxPartial()
		if e == nil {
			break
		}
		if st.Extensions >= cfg.MaxExtensions {
			return nil, fmt.Errorf("pathenum: distance-pruned enumeration of %s exceeded %d extensions",
				c.Name, cfg.MaxExtensions)
		}
		st.Extensions++
		drop(e) // replaced by its children
		for _, ch := range extendInto(c, cfg.Model, dist, e) {
			add(ch)
		}
		if cfg.MaxFaults > 0 && 2*live >= cfg.MaxFaults {
			evict()
		}
	}
	return finish(every, st), nil
}
