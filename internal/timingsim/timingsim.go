// Package timingsim is an event-driven gate-level timing simulator for
// two-pattern tests, used to validate the robust path delay fault
// machinery end to end.
//
// Every circuit line carries an integer delay; the delay of a path is
// the sum of its line delays, matching the length definition of the
// DATE 2002 paper. A two-pattern test is simulated as: the circuit
// rests in the steady state of the first pattern, the inputs switch to
// the second pattern at time 0, and transitions propagate under
// transport-delay semantics. Primary outputs are sampled at the clock
// period T.
//
// A path delay fault is injected by adding extra delay to the lines of
// the faulty path. The defining guarantee of a *robust* test is that
// it detects the fault — the sampled value at the path's output is
// wrong — for every delay assignment of the rest of the circuit. The
// package's tests exercise exactly that property against the tests the
// ATPG generates.
package timingsim

import (
	"container/heap"
	"fmt"

	"repro/internal/circuit"
	"repro/internal/tval"
)

// Delays assigns an integer delay to every line (indexed by line ID).
type Delays []int

// UniformDelays returns a delay assignment giving every line the same
// delay d.
func UniformDelays(c *circuit.Circuit, d int) Delays {
	out := make(Delays, len(c.Lines))
	for i := range out {
		out[i] = d
	}
	return out
}

// WithExtraOnPath returns a copy of the assignment with extra delay
// added to the last line of the path — one concrete mechanism by which
// exactly the faulty path (and every path through that line) becomes
// slow by extra.
func (d Delays) WithExtraOnPath(path []int, extra int) Delays {
	out := append(Delays(nil), d...)
	out[path[len(path)-1]] += extra
	return out
}

// WithExtraDistributed returns a copy of the assignment with the extra
// delay spread evenly over every line of the path — the distributed
// small-defect mechanism the path delay fault model was invented for
// (no single line is grossly slow, only the whole path misses timing).
// Remainders go to the earliest lines so the total added is exact.
func (d Delays) WithExtraDistributed(path []int, extra int) Delays {
	out := append(Delays(nil), d...)
	if len(path) == 0 || extra <= 0 {
		return out
	}
	per := extra / len(path)
	rem := extra % len(path)
	for i, l := range path {
		add := per
		if i < rem {
			add++
		}
		out[l] += add
	}
	return out
}

// Transition is one waveform event: the line assumes value V at time T.
type Transition struct {
	T int
	V tval.V
}

// Waveform is the transition history of a line, starting with its
// initial (first-pattern steady state) value at time 0 implicit in the
// first entry (T may be negative infinity conceptually; the first
// entry always has T = 0 meaning "initial value").
type Waveform []Transition

// At returns the line's value at time t (the value of the last
// transition not after t).
func (w Waveform) At(t int) tval.V {
	v := w[0].V
	for _, tr := range w[1:] {
		if tr.T > t {
			break
		}
		v = tr.V
	}
	return v
}

// Settled returns the final value of the waveform.
func (w Waveform) Settled() tval.V { return w[len(w)-1].V }

// SettleTime returns the time of the last transition (0 if none).
func (w Waveform) SettleTime() int { return w[len(w)-1].T }

// Result holds the simulated waveform of every line.
type Result struct {
	Waveforms []Waveform
}

// SettleTime returns the time at which the whole circuit has settled.
func (r *Result) SettleTime() int {
	max := 0
	for _, w := range r.Waveforms {
		if t := w.SettleTime(); t > max {
			max = t
		}
	}
	return max
}

type event struct {
	t    int
	seq  int
	line int
	v    tval.V
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Simulate runs the two-pattern test under the delay assignment and
// returns every line's waveform. The test must be fully specified.
func Simulate(c *circuit.Circuit, delays Delays, test circuit.TwoPattern) (*Result, error) {
	if !test.FullySpecified() {
		return nil, fmt.Errorf("timingsim: test must be fully specified")
	}
	if len(delays) != len(c.Lines) {
		return nil, fmt.Errorf("timingsim: %d delays for %d lines", len(delays), len(c.Lines))
	}

	// Steady state under pattern 1.
	cur := circuit.Evaluate(c, test.P1)
	wf := make([]Waveform, len(c.Lines))
	for id := range c.Lines {
		wf[id] = Waveform{{T: 0, V: cur[id]}}
	}

	var q eventHeap
	seq := 0
	heap.Init(&q)
	for i, pi := range c.PIs {
		if test.P3[i] != cur[pi] {
			heap.Push(&q, event{t: delays[pi], seq: seq, line: pi, v: test.P3[i]})
			seq++
		}
	}

	guard := 0
	maxEvents := 64 * len(c.Lines) * 64
	for q.Len() > 0 {
		guard++
		if guard > maxEvents {
			return nil, fmt.Errorf("timingsim: event budget exceeded (oscillation in a combinational circuit?)")
		}
		e := heap.Pop(&q).(event)
		if cur[e.line] == e.v {
			continue
		}
		cur[e.line] = e.v
		wf[e.line] = append(wf[e.line], Transition{T: e.t, V: e.v})

		l := &c.Lines[e.line]
		// Propagate to branches (each with its own delay).
		for _, s := range l.Succs {
			sl := &c.Lines[s]
			if sl.Kind == circuit.LineBranch {
				heap.Push(&q, event{t: e.t + delays[s], seq: seq, line: s, v: e.v})
				seq++
			}
		}
		// Propagate into the consumer gate (direct connection), or —
		// when this line is a branch — into its consumer gate. The
		// gate reads its input lines, not nets: each branch carries
		// its own waveform.
		if gi := l.ConsumerGate; gi >= 0 {
			g := &c.Gates[gi]
			nv := g.Type.Eval(g.In, cur)
			heap.Push(&q, event{t: e.t + delays[g.Out], seq: seq, line: g.Out, v: nv})
			seq++
		}
	}
	return &Result{Waveforms: wf}, nil
}

// Detected reports whether the fault injected on path is caught: the
// path's output line, sampled at period T, differs from its fault-free
// settled value.
func Detected(r *Result, path []int, period int, faultFree *Result) bool {
	sink := path[len(path)-1]
	want := faultFree.Waveforms[sink].Settled()
	got := r.Waveforms[sink].At(period)
	return got != want
}
