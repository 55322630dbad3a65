package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AnalyzerRand flags package-level math/rand (and math/rand/v2)
// functions in the deterministic packages. Those draw from the
// process-global, unseeded source, so two runs with the same
// Config.Seed produce different tests — breaking the result cache,
// journal replay and the perfreg cross-rep determinism gate.
// Constructing an explicit seeded generator (rand.New,
// rand.NewSource, rand.NewPCG, ...) is fine.
var AnalyzerRand = &Analyzer{
	Name: "rand",
	Doc:  "unseeded math/rand package-level function in a deterministic package",
	Run:  runNondetSources,
}

// randConstructors build explicit sources/generators and are allowed.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// AnalyzerTimeNow flags time.Now and time.Since in the deterministic
// packages. Wall-clock reads are fine for spans and Elapsed fields —
// and nothing else: a timestamp that leaks into a generated test,
// ordering decision or digest makes replay diverge. An observational
// read is kept with `//lint:ignore timenow <reason>`, like any other
// suppression, so it shows in the report's suppression list.
var AnalyzerTimeNow = &Analyzer{
	Name: "timenow",
	Doc:  "time.Now/time.Since in a deterministic package",
	Run:  runNondetSources,
}

// runNondetSources reports, in a deterministic package, the calls
// nondetSource attributes to pass.Analyzer (rand or timenow).
func runNondetSources(pass *Pass) {
	if !pass.Config.Deterministic(pass.Pkg) {
		return
	}
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, isCall := n.(*ast.CallExpr)
			if !isCall {
				return true
			}
			switch analyzer, why := nondetSource(pass, file, call); {
			case analyzer != pass.Analyzer.Name:
			case analyzer == "rand":
				pass.Reportf(call.Pos(),
					"%s: use a *rand.Rand seeded from Config.Seed so runs are reproducible", why)
			default:
				pass.Reportf(call.Pos(),
					"%s in deterministic package %s: results must not depend on the wall clock (suppress with //lint:ignore timenow <reason> if observational only)",
					why, pass.Pkg.PkgPath)
			}
			return true
		})
	}
}

// AnalyzerMapOrder flags ranging over a map where the loop body feeds
// an ordered sink — appending to an outer slice, building an outer
// string, writing to a Builder/Buffer or emitting output — without
// the sink being sorted later in the same function. Go randomizes map
// iteration order per run, so such loops are exactly how
// nondeterminism sneaks into fault lists, path orderings and emitted
// tests.
var AnalyzerMapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "map iteration feeding an ordered result without an intervening sort",
	Run:  runMapOrder,
}

// mapSink is one ordered write found inside a range-over-map body.
type mapSink struct {
	pos  token.Pos
	what string
	// obj is the sink object (slice/string var) when a later sort on
	// it clears the finding; nil means the write is inherently
	// ordered (io emission) and only //lint:ignore can clear it.
	obj types.Object
}

func runMapOrder(pass *Pass) {
	if !pass.Config.Deterministic(pass.Pkg) {
		return
	}
	for _, file := range pass.Pkg.Files {
		funcBodies(file, func(name string, body *ast.BlockStmt) {
			runMapOrderFunc(pass, file, body)
		})
	}
}

func runMapOrderFunc(pass *Pass, file *ast.File, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit && n.Pos() != body.Pos() {
			return false // literals are analyzed as their own frame
		}
		rs, isRange := n.(*ast.RangeStmt)
		if !isRange {
			return true
		}
		t := pass.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		for _, sink := range orderedSinks(pass, file, rs) {
			if sink.obj != nil && sortedAfter(pass, body, rs, sink.obj) {
				continue
			}
			pass.Reportf(sink.pos,
				"%s inside range over map %s: map iteration order is random — sort the keys first, or sort the result before it is used",
				sink.what, exprString(rs.X))
		}
		return true
	})
}

// orderedSinks finds writes to order-sensitive outer state inside the
// range body.
func orderedSinks(pass *Pass, file *ast.File, rs *ast.RangeStmt) []mapSink {
	var sinks []mapSink
	outer := func(e ast.Expr) types.Object {
		id, isIdent := e.(*ast.Ident)
		if !isIdent {
			return nil
		}
		obj := pass.ObjectOf(id)
		if obj == nil || obj.Pos() == token.NoPos || obj.Pos() >= rs.Pos() {
			return nil // declared inside the loop (or unresolved)
		}
		return obj
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, isCall := rhs.(*ast.CallExpr)
				if !isCall || len(call.Args) == 0 {
					continue
				}
				fid, isIdent := call.Fun.(*ast.Ident)
				if !isIdent || fid.Name != "append" {
					continue
				}
				if i >= len(n.Lhs) && len(n.Lhs) != 1 {
					continue
				}
				lhs := n.Lhs[0]
				if len(n.Lhs) > i {
					lhs = n.Lhs[i]
				}
				if obj := outer(lhs); obj != nil {
					sinks = append(sinks, mapSink{
						pos: n.Pos(), what: "append to " + obj.Name(), obj: obj,
					})
				}
			}
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 {
				if obj := outer(n.Lhs[0]); obj != nil {
					if b, isBasic := obj.Type().Underlying().(*types.Basic); isBasic && b.Info()&types.IsString != 0 {
						sinks = append(sinks, mapSink{
							pos: n.Pos(), what: "string build of " + obj.Name(), obj: obj,
						})
					}
				}
			}
		case *ast.CallExpr:
			if recv, m, ok := methodCall(pass, n); ok {
				switch m {
				case "WriteString", "WriteByte", "WriteRune", "Write":
					rt := namedType(pass.TypeOf(recv))
					if rt == "strings.Builder" || rt == "bytes.Buffer" {
						sinks = append(sinks, mapSink{
							pos: n.Pos(), what: m + " on " + exprString(recv), obj: outer(recv),
						})
					}
				}
				return true
			}
			if pkgPath, name, ok := pkgFuncCall(pass, file, n); ok && pkgPath == "fmt" &&
				(name == "Fprint" || name == "Fprintf" || name == "Fprintln" ||
					name == "Print" || name == "Printf" || name == "Println") {
				sinks = append(sinks, mapSink{pos: n.Pos(), what: "fmt." + name + " emission"})
			}
		}
		return true
	})
	return sinks
}

// sortedAfter reports whether, after the range statement, the
// function sorts the sink: any sort.* / slices.* call, or any
// function whose name starts with Sort/sort (project helpers like
// faults.SortByLengthDesc), referencing it.
func sortedAfter(pass *Pass, body *ast.BlockStmt, rs *ast.RangeStmt, sink types.Object) bool {
	sorted := false
	ast.Inspect(body, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, isCall := n.(*ast.CallExpr)
		if !isCall || call.Pos() < rs.End() {
			return true
		}
		if !isSortCall(call) {
			return true
		}
		for _, arg := range call.Args {
			if containsIdentObj(pass, arg, sink) {
				sorted = true
				return false
			}
		}
		return true
	})
	return sorted
}

func isSortCall(call *ast.CallExpr) bool {
	var name string
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
		if qual, isIdent := fun.X.(*ast.Ident); isIdent &&
			(qual.Name == "sort" || qual.Name == "slices") {
			return true
		}
	default:
		return false
	}
	return strings.HasPrefix(name, "Sort") || strings.HasPrefix(name, "sort")
}
