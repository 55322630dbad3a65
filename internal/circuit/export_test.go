package circuit

// RandomTestCircuit exposes the random circuit generator to the
// external test package.
var RandomTestCircuit = randomTestCircuit

// Level returns the topological level of gate gi; every gate sits at a
// higher level than the gates driving its inputs.
func (c *Circuit) Level(gi int) int { return c.level[gi] }

// Net returns the net ID at slot k.
func (s *Simulator) Net(k int) int { return s.nets[k] }
