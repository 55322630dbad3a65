// Package yield quantifies the motivation of the DATE 2002 paper with
// Monte-Carlo delay variation: path length estimates are inexact, so a
// path placed in the second target set P1 may actually be longer than
// paths in P0 — "small errors in the computation of the path lengths
// can result in a path that was placed in P1 being longer than a path
// placed in P0" (Section 1).
//
// Each line receives a delay distribution; samples draw every line
// once (so paths sharing lines stay correlated) and the analysis
// reports the probability that a path of P1 is slower than one of P0 —
// the number that justifies enriching test sets with
// next-to-longest-path faults.
package yield

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/circuit"
)

// Dist is a per-line delay distribution.
type Dist interface {
	// Sample draws one delay; results must be non-negative.
	Sample(r *rand.Rand) float64
	// Nominal is the deterministic delay the distribution varies
	// around (used for the nominal ranking).
	Nominal() float64
}

// Fixed is a deterministic delay.
type Fixed float64

// Sample implements Dist.
func (f Fixed) Sample(*rand.Rand) float64 { return float64(f) }

// Nominal implements Dist.
func (f Fixed) Nominal() float64 { return float64(f) }

// Uniform draws uniformly from [Lo, Hi].
type Uniform struct{ Lo, Hi float64 }

// Sample implements Dist.
func (u Uniform) Sample(r *rand.Rand) float64 {
	return u.Lo + r.Float64()*(u.Hi-u.Lo)
}

// Nominal implements Dist.
func (u Uniform) Nominal() float64 { return (u.Lo + u.Hi) / 2 }

// Normal draws from a normal distribution clamped at zero.
type Normal struct{ Mean, Sigma float64 }

// Sample implements Dist.
func (n Normal) Sample(r *rand.Rand) float64 {
	v := n.Mean + n.Sigma*r.NormFloat64()
	if v < 0 {
		return 0
	}
	return v
}

// Nominal implements Dist.
func (n Normal) Nominal() float64 { return n.Mean }

// Model assigns a distribution to every line.
type Model []Dist

// UniformVariation builds a model where every line's delay is uniform
// in [nominal·(1-rel), nominal·(1+rel)] around a unit nominal delay.
func UniformVariation(c *circuit.Circuit, rel float64) Model {
	m := make(Model, len(c.Lines))
	for i := range m {
		m[i] = Uniform{Lo: 1 - rel, Hi: 1 + rel}
	}
	return m
}

// BoundaryCrossProb estimates the probability that the P0/P1 ranking
// boundary inverts: some P1 path's sampled delay exceeds some P0
// path's. The partition cut sits between adjacent length classes, so
// under any real variation this probability is high — the statistical
// statement of the paper's argument that the faults just below the cut
// deserve coverage too.
func BoundaryCrossProb(c *circuit.Circuit, p0Paths, p1Paths [][]int, m Model, samples int, seed int64) (float64, error) {
	if len(m) != len(c.Lines) {
		return 0, fmt.Errorf("yield: model covers %d lines, circuit has %d", len(m), len(c.Lines))
	}
	if len(p0Paths) == 0 || len(p1Paths) == 0 || samples <= 0 {
		return 0, fmt.Errorf("yield: need P0 and P1 paths and positive samples")
	}
	for _, p := range append(append([][]int{}, p0Paths...), p1Paths...) {
		if err := c.ValidatePath(p); err != nil {
			return 0, err
		}
	}
	r := rand.New(rand.NewSource(seed))
	lineDelay := make([]float64, len(c.Lines))
	crossed := 0
	for s := 0; s < samples; s++ {
		for l := range lineDelay {
			lineDelay[l] = m[l].Sample(r)
		}
		minP0 := math.Inf(1)
		for _, p := range p0Paths {
			d := 0.0
			for _, l := range p {
				d += lineDelay[l]
			}
			if d < minP0 {
				minP0 = d
			}
		}
		for _, p := range p1Paths {
			d := 0.0
			for _, l := range p {
				d += lineDelay[l]
			}
			if d > minP0 {
				crossed++
				break
			}
		}
	}
	return float64(crossed) / float64(samples), nil
}

// DisplacementBySet evaluates the paper's P0/P1 story: given the paths
// of P0 and P1, it returns the probability that the sampled critical
// path lies in P1 — the escape risk of testing only P0.
func DisplacementBySet(c *circuit.Circuit, p0Paths, p1Paths [][]int, m Model, samples int, seed int64) (float64, error) {
	all := make([][]int, 0, len(p0Paths)+len(p1Paths))
	all = append(all, p0Paths...)
	all = append(all, p1Paths...)
	if len(m) != len(c.Lines) {
		return 0, fmt.Errorf("yield: model covers %d lines, circuit has %d", len(m), len(c.Lines))
	}
	if len(p0Paths) == 0 || samples <= 0 {
		return 0, fmt.Errorf("yield: need P0 paths and positive samples")
	}
	for _, p := range all {
		if err := c.ValidatePath(p); err != nil {
			return 0, err
		}
	}
	r := rand.New(rand.NewSource(seed))
	lineDelay := make([]float64, len(c.Lines))
	inP1 := 0
	for s := 0; s < samples; s++ {
		for l := range lineDelay {
			lineDelay[l] = m[l].Sample(r)
		}
		bestD := math.Inf(-1)
		bestI := 0
		for i, p := range all {
			d := 0.0
			for _, l := range p {
				d += lineDelay[l]
			}
			if d > bestD {
				bestD = d
				bestI = i
			}
		}
		if bestI >= len(p0Paths) {
			inP1++
		}
	}
	return float64(inP1) / float64(samples), nil
}
