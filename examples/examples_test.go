// Package examples holds the runnable example programs, one main per
// directory. Its test builds and runs every one of them.
package examples

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestExamplesRun builds every example and runs it with its default
// arguments: each must exit 0 (a panic exits 2).
func TestExamplesRun(t *testing.T) {
	gocmd, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH to build the examples with")
	}
	bin := t.TempDir()
	if out, err := exec.Command(gocmd, "build", "-o", bin+string(filepath.Separator), "./...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	dirs, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		ran++
		t.Run(d.Name(), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			var stdout, stderr bytes.Buffer
			cmd := exec.CommandContext(ctx, filepath.Join(bin, d.Name()))
			cmd.Dir = t.TempDir()
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%v\nstderr:\n%s", err, stderr.Bytes())
			}
			if stdout.Len() == 0 {
				t.Error("printed nothing")
			}
		})
	}
	if ran == 0 {
		t.Fatal("no examples found")
	}
}
