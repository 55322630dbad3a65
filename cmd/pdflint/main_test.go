package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestExitStatus pins the exit-status contract make lint relies on:
// 0 and "clean" on a clean package, 2 for a flag pdflint does not
// accept, 2 for a package directory that does not exist.
func TestExitStatus(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"./internal/tval"}, &stdout, &stderr); code != 0 {
		t.Fatalf("pdflint ./internal/tval exited %d, want 0\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	if !strings.Contains(stdout.String(), "pdflint: clean") {
		t.Errorf("pdflint ./internal/tval did not report clean:\n%s", &stdout)
	}

	for _, args := range [][]string{
		{"-json", "./internal/tval"},
		{"-format", "sarif", "./internal/tval"},
		{"-sarif", "out.sarif", "./internal/tval"},
		{"-facts", "./internal/tval"},
		{"-why", "0123456789ab", "./internal/tval"},
		{"-enable", "locks", "./internal/tval"},
		{"-disable", "locks", "./internal/tval"},
		{"./internal/no-such-package"},
	} {
		stdout.Reset()
		stderr.Reset()
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("pdflint %s exited %d, want 2", strings.Join(args, " "), code)
		}
	}
}
