//go:build !race

package engine_test

// raceBuild reports a -race build, whose shadow memory multiplies the
// resident cost of every heap byte a test touches.
const raceBuild = false
