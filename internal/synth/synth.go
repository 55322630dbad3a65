// Package synth generates deterministic synthetic combinational
// circuits.
//
// The original experiments of the DATE 2002 paper use ISCAS-89 and
// ITC-99 benchmark netlists, which are not redistributable here. synth
// produces stand-in circuits with matched coarse profiles (input
// count, gate count, depth) so that every algorithm code path —
// budgeted path enumeration, distance pruning, robust test generation,
// compaction, enrichment — is exercised on circuits of the same scale.
// Generation is fully deterministic in the profile seed.
package synth

import (
	"fmt"
	"math/rand"

	"repro/internal/circuit"
)

// Profile parameterizes a synthetic circuit.
type Profile struct {
	Name     string
	Seed     int64
	PIs      int     // number of primary inputs
	Gates    int     // number of gates
	Levels   int     // target logic depth in gate levels
	MaxFanin int     // maximum gate fanin (≥ 2)
	XorFrac  float64 // fraction of XOR/XNOR gates
	InvFrac  float64 // fraction of NOT/BUF gates
}

// Validate checks the profile for obvious nonsense.
func (p Profile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("synth: profile needs a name")
	case p.PIs < 2:
		return fmt.Errorf("synth: %s: need at least 2 inputs", p.Name)
	case p.Gates < 1:
		return fmt.Errorf("synth: %s: need at least 1 gate", p.Name)
	case p.Levels < 1:
		return fmt.Errorf("synth: %s: need at least 1 level", p.Name)
	case p.MaxFanin < 2:
		return fmt.Errorf("synth: %s: MaxFanin must be ≥ 2", p.Name)
	case p.XorFrac < 0 || p.XorFrac > 1 || p.InvFrac < 0 || p.InvFrac > 1:
		return fmt.Errorf("synth: %s: gate fractions must be within [0,1]", p.Name)
	}
	return nil
}

// Generate builds the circuit described by the profile.
func Generate(p Profile) (*circuit.Circuit, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	b := circuit.NewBuilder(p.Name)

	type netInfo struct {
		handle int
		level  int
		uses   int
	}
	nets := make([]netInfo, 0, p.PIs+p.Gates)
	for i := 0; i < p.PIs; i++ {
		h := b.AddInput(fmt.Sprintf("I%d", i))
		nets = append(nets, netInfo{handle: h, level: 0})
	}

	// Gates are distributed over levels 1..Levels, wider in the
	// middle, and each gate draws its first input from the previous
	// level so that long sensitizable chains exist.
	levelOf := make([]int, p.Gates)
	for i := range levelOf {
		levelOf[i] = 1 + i*p.Levels/p.Gates
	}

	// pick selects a net from levels < level, biased towards recent
	// levels and towards nets with few uses, avoiding those in taken.
	pick := func(level int, taken []int, preferPrev bool) int {
		best := -1
		bestScore := -1.0
		tries := 8
	candidates:
		for t := 0; t < tries; t++ {
			i := rng.Intn(len(nets))
			n := nets[i]
			if n.level >= level {
				continue
			}
			for _, tk := range taken {
				if tk == i {
					continue candidates
				}
			}
			score := rng.Float64()
			if preferPrev && n.level == level-1 {
				score += 2
			}
			score += 0.5 / float64(1+n.uses)
			if score > bestScore {
				bestScore = score
				best = i
			}
		}
		return best
	}

	gateType := func() circuit.GateType {
		r := rng.Float64()
		switch {
		case r < p.InvFrac:
			if rng.Intn(4) == 0 {
				return circuit.Buf
			}
			return circuit.Not
		case r < p.InvFrac+p.XorFrac:
			if rng.Intn(2) == 0 {
				return circuit.Xnor
			}
			return circuit.Xor
		default:
			switch rng.Intn(4) {
			case 0:
				return circuit.And
			case 1:
				return circuit.Nand
			case 2:
				return circuit.Or
			default:
				return circuit.Nor
			}
		}
	}

	for gi := 0; gi < p.Gates; gi++ {
		level := levelOf[gi]
		gt := gateType()
		fanin := 1
		if gt != circuit.Not && gt != circuit.Buf {
			fanin = 2
			if p.MaxFanin > 2 && rng.Intn(4) == 0 {
				fanin = 2 + rng.Intn(p.MaxFanin-1)
			}
		}
		var ins []int
		var taken []int
		for k := 0; k < fanin; k++ {
			idx := pick(level, taken, k == 0)
			if idx < 0 {
				break
			}
			taken = append(taken, idx)
			ins = append(ins, nets[idx].handle)
		}
		if len(ins) == 0 {
			// Degenerate random draw: fall back to any net below level.
			for i := range nets {
				if nets[i].level < level {
					taken = append(taken, i)
					ins = append(ins, nets[i].handle)
					break
				}
			}
		}
		if len(ins) == 1 && gt != circuit.Not && gt != circuit.Buf {
			gt = circuit.Not
		}
		h := b.AddGate(gt, fmt.Sprintf("N%d", p.PIs+gi), ins...)
		for _, i := range taken {
			nets[i].uses++
		}
		nets = append(nets, netInfo{handle: h, level: level})
	}

	// Every net without a consumer becomes a primary output; this
	// guarantees a legal circuit and a natural output count.
	for _, n := range nets {
		if n.uses == 0 {
			b.MarkOutput(n.handle)
		}
	}
	return b.Build()
}

// MustGenerate is Generate for known-good profiles; it panics on error.
//
//lint:ignore testonly tests in several packages build their circuits with it
func MustGenerate(p Profile) *circuit.Circuit {
	c, err := Generate(p)
	if err != nil {
		panic(err)
	}
	return c
}
