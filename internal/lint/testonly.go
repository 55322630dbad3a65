package lint

import (
	"go/ast"
	"go/types"
)

// AnalyzerTestOnly keeps code that only tests reach out of production:
// it flags an exported top-level function that no loaded non-test
// package references (the loader reads no _test.go file, so a call
// from a test does not count). A function that stays on purpose, such
// as a reference implementation other packages' tests compare
// against, carries //lint:ignore testonly <reason>.
//
// Methods are skipped: a method may exist to implement an interface,
// and its callers then name the interface, not the method. So are the
// packages that no loaded package imports: commands, and test-support
// packages whose exports exist for tests.
var AnalyzerTestOnly = &Analyzer{
	Name:      "testonly",
	Doc:       "exported function that no non-test package references",
	RunModule: runTestOnly,
}

func runTestOnly(mp *ModulePass) {
	imported := make(map[string]bool)
	used := make(map[types.Object]bool)
	for _, p := range mp.Facts.pkgs {
		for _, imp := range p.imports {
			imported[imp] = true
		}
		for _, obj := range p.Info.Uses {
			used[obj] = true
		}
	}
	for _, p := range mp.Facts.pkgs {
		if !imported[p.PkgPath] {
			continue
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if ok && fd.Recv == nil && fd.Name.IsExported() && !used[p.Info.Defs[fd.Name]] {
					mp.Report(fd.Name.Pos(), nil,
						"%s.%s is referenced by no non-test package: delete it, move it into a _test.go file, or say why it stays with //lint:ignore testonly",
						p.Types.Name(), fd.Name.Name)
				}
			}
		}
	}
}
