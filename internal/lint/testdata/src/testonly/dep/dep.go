// Package dep holds the exported functions the testonly fixture
// checks.
package dep

// Used has a non-test caller.
func Used() int { return helper() }

// OnlyTests has none; a test calling it would not count.
func OnlyTests() int { return 1 } // want `dep.OnlyTests is referenced by no non-test package`

// Kept stays on purpose.
//
//lint:ignore testonly fixture demonstrates a function kept for other packages' tests
func Kept() int { return 2 }

// T's method is not checked, though nothing calls it: a method may
// exist to implement an interface.
type T struct{}

// Unused has no caller.
func (T) Unused() int { return 3 }

func helper() int { return 4 }

// Generic is called through an instantiation.
func Generic[T any](v T) T { return v }
