// Command pdflint runs the project's static-analysis suite: the
// determinism, lock-discipline, goroutine-hygiene and obs-hygiene
// invariants of internal/lint over every package of the module.
//
// Usage:
//
//	pdflint [flags] [./...]
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
//
// Each finding prints as file:line:col: [analyzer] message, with the
// interprocedural provenance chain behind it (if any) indented
// beneath, one frame per line. Findings are suppressed in place with
//
//	//lint:ignore <analyzer> <reason>
//
// on the offending line or alone on the line above; -v lists the
// suppressions with their reasons.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pdflint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list    = fs.Bool("list", false, "list analyzers and exit")
		verbose = fs.Bool("v", false, "also print suppressed findings with their reasons")
		root    = fs.String("root", "", "module root (default: walk up from cwd to go.mod)")
		conc    = fs.Bool("concurrent", false, "print import paths of concurrency-bearing packages and exit (make race)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	modRoot := *root
	if modRoot == "" {
		var err error
		modRoot, err = findModuleRoot()
		if err != nil {
			fmt.Fprintln(stderr, "pdflint:", err)
			return 2
		}
	}

	// Package arguments: "./..." (or nothing) means the whole module;
	// "./internal/core/..." or a plain directory restricts the walk.
	var only []string
	for _, arg := range fs.Args() {
		if arg == "./..." || arg == "..." {
			only = nil
			break
		}
		arg = strings.TrimSuffix(arg, "/...")
		arg = strings.TrimPrefix(arg, "./")
		only = append(only, arg)
	}

	pkgs, err := lint.LoadModule(modRoot, &lint.LoadOptions{Only: only})
	if err != nil {
		fmt.Fprintln(stderr, "pdflint: load:", err)
		return 2
	}

	if *conc {
		for _, path := range lint.ConcurrentPackages(pkgs) {
			fmt.Fprintln(stdout, path)
		}
		return 0
	}

	res := lint.Run(pkgs, lint.Analyzers(), lint.DefaultConfig())
	res.WriteText(stdout, modRoot, *verbose)
	if len(res.Diags) > 0 {
		return 1
	}
	return 0
}

func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
