package bitsim

import (
	"repro/internal/circuit"
	"repro/internal/robust"
	"repro/internal/tval"
)

// The cube walk: the uncompiled detection a Program is tested against.
// It reads each requirement of each cube straight off the batch's
// planes, in cube order, and shares nothing with Compile's offsets.

// Covers returns the mask of tests in the batch whose simulated values
// satisfy every requirement of the cube.
func (b *Batch) Covers(cube *robust.Cube) uint64 {
	mask := batchMask(b.n)
	for i, net := range cube.Nets {
		req := cube.Vals[i]
		for p := 0; p < circuit.NumPlanes && mask != 0; p++ {
			switch req.At(p) {
			case tval.One:
				mask &= b.h[p][net]
			case tval.Zero:
				mask &= b.l[p][net]
			}
		}
		if mask == 0 {
			return 0
		}
	}
	return mask
}

// Detects returns the mask of tests detecting the fault (covering any
// alternative).
func (b *Batch) Detects(fc *robust.FaultConditions) uint64 {
	var mask uint64
	for i := range fc.Alts {
		mask |= b.Covers(&fc.Alts[i])
	}
	return mask
}
