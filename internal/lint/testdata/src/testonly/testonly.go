// Package testonly is the testonly analyzer's fixture: it uses dep the
// way production code uses a library. No package imports testonly, so
// its own exported function is not checked.
package testonly

import "repro/internal/lint/testdata/src/testonly/dep"

// Entry is exported and unreferenced, like a command's entry point.
func Entry() int { return dep.Generic(dep.Used()) }
