// Package scan analyzes how the two-pattern tests generated for the
// combinational logic of a sequential circuit can be applied through
// scan.
//
// The DATE 2002 paper (like most path delay fault ATPG work) generates
// tests for the combinational logic, implicitly assuming *enhanced
// scan*: any pair of states can be applied. Standard scan designs are
// more restricted, and a test survives only if its second pattern is
// producible by the design:
//
//   - Broadside (launch-on-capture): the second pattern's state part
//     must equal the circuit's next-state function applied to the
//     first pattern.
//   - Skewed-load (launch-on-shift): the second pattern's state part
//     must be the first pattern's state shifted one position along the
//     scan chain, with the scan-in bit free.
//
// Analyze reports how much of a combinational test set survives each
// application scheme — the practical cost of the enhanced-scan
// assumption.
package scan

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/tval"
)

// Scheme is a scan application scheme.
type Scheme int

// The three application schemes.
const (
	EnhancedScan Scheme = iota
	Broadside
	SkewedLoad
)

func (s Scheme) String() string {
	switch s {
	case EnhancedScan:
		return "enhanced-scan"
	case Broadside:
		return "broadside"
	case SkewedLoad:
		return "skewed-load"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// Options configure the analysis.
type Options struct {
	// HoldPIs requires the real primary inputs to keep their first
	// pattern value in the second pattern (broadside testers usually
	// cannot change PIs between launch and capture at speed).
	HoldPIs bool
	// Chain is the scan chain order as flip-flop indices (0-based,
	// matching State's order); nil means flip-flop declaration order.
	// The chain shifts from higher chain positions toward lower ones:
	// after one shift, flip-flop Chain[k] holds the previous value of
	// Chain[k-1], and Chain[0] receives the scan-in bit (free).
	Chain []int
}

// Applicable reports whether a test can be applied under the scheme.
func Applicable(c *circuit.Circuit, st *bench.State, scheme Scheme, test circuit.TwoPattern, opt Options) (bool, error) {
	if err := validate(c, st, opt); err != nil {
		return false, err
	}
	switch scheme {
	case EnhancedScan:
		return true, nil
	case Broadside:
		return broadside(c, st, test, opt), nil
	case SkewedLoad:
		return skewedLoad(st, test, opt), nil
	}
	return false, fmt.Errorf("scan: unknown scheme %d", scheme)
}

func validate(c *circuit.Circuit, st *bench.State, opt Options) error {
	if st.NumPI+st.NumFF() != len(c.PIs) {
		return fmt.Errorf("scan: state describes %d+%d inputs, circuit has %d",
			st.NumPI, st.NumFF(), len(c.PIs))
	}
	if opt.Chain != nil {
		if len(opt.Chain) != st.NumFF() {
			return fmt.Errorf("scan: chain has %d positions for %d flip-flops",
				len(opt.Chain), st.NumFF())
		}
		seen := make(map[int]bool)
		for _, ff := range opt.Chain {
			if ff < 0 || ff >= st.NumFF() || seen[ff] {
				return fmt.Errorf("scan: invalid chain %v", opt.Chain)
			}
			seen[ff] = true
		}
	}
	return nil
}

// broadside: simulate the first pattern; the computed next state must
// match the second pattern's state part (x state bits in the test
// match anything).
func broadside(c *circuit.Circuit, st *bench.State, test circuit.TwoPattern, opt Options) bool {
	vals := circuit.Evaluate(c, test.P1)
	for i, dataNet := range st.FFDataNet {
		want := test.P3[st.NumPI+i]
		if want == tval.X {
			continue
		}
		if vals[dataNet] != want {
			return false
		}
	}
	if opt.HoldPIs {
		for i := 0; i < st.NumPI; i++ {
			if test.P1[i] != test.P3[i] {
				return false
			}
		}
	}
	return true
}

// skewedLoad: the second pattern's state is the first pattern's state
// shifted one position along the chain.
func skewedLoad(st *bench.State, test circuit.TwoPattern, opt Options) bool {
	chain := opt.Chain
	if chain == nil {
		chain = make([]int, st.NumFF())
		for i := range chain {
			chain[i] = i
		}
	}
	for k := 1; k < len(chain); k++ {
		v2 := test.P3[st.NumPI+chain[k]]
		v1 := test.P1[st.NumPI+chain[k-1]]
		if v2 == tval.X || v1 == tval.X {
			continue
		}
		if v2 != v1 {
			return false
		}
	}
	// Chain[0] receives scan-in: free. Real PIs may change during the
	// last shift, so they are unconstrained.
	return true
}

// Stats summarizes the applicability of a test set.
type Stats struct {
	Total        int
	Enhanced     int // always == Total
	Broadside    int
	SkewedLoad   int
	BroadsideIdx []int // indices of broadside-applicable tests
	SkewedIdx    []int
}

// Analyze classifies every test of a set.
func Analyze(c *circuit.Circuit, st *bench.State, tests []circuit.TwoPattern, opt Options) (*Stats, error) {
	out := &Stats{Total: len(tests), Enhanced: len(tests)}
	for i, tp := range tests {
		bs, err := Applicable(c, st, Broadside, tp, opt)
		if err != nil {
			return nil, err
		}
		if bs {
			out.Broadside++
			out.BroadsideIdx = append(out.BroadsideIdx, i)
		}
		sl, err := Applicable(c, st, SkewedLoad, tp, opt)
		if err != nil {
			return nil, err
		}
		if sl {
			out.SkewedLoad++
			out.SkewedIdx = append(out.SkewedIdx, i)
		}
	}
	return out, nil
}
