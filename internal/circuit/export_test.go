package circuit

// RandomTestCircuit exposes the random circuit generator to the
// external test package.
var RandomTestCircuit = randomTestCircuit
