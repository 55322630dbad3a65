package lint

import (
	"go/ast"
	"go/types"
)

// AnalyzerGoFunc enforces goroutine hygiene in the long-lived
// packages (cluster, engine, events, journal, obs): every `go`
// statement must be cancelable or tracked — the spawned function
// takes or captures a context.Context, or its lifetime is accounted
// for by a sync.WaitGroup (Add before the spawn / Done inside the
// body). Untracked goroutines in daemon-lifetime code are how
// shutdown deadlocks and goroutine leaks start; the engine's own
// chaos suite asserts zero leaked goroutines after Shutdown.
var AnalyzerGoFunc = &Analyzer{
	Name: "gofunc",
	Doc:  "goroutine in a long-lived package that is neither context-aware nor WaitGroup-tracked",
	Run:  runGoFunc,
}

func runGoFunc(pass *Pass) {
	if !pass.Config.LongLived(pass.Pkg) {
		return
	}
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			gs, isGo := n.(*ast.GoStmt)
			if !isGo {
				return true
			}
			if goStmtTracked(pass, gs) {
				return true
			}
			pass.Reportf(gs.Pos(),
				"goroutine is neither context-aware nor WaitGroup-tracked: take/capture a context.Context or pair it with wg.Add/wg.Done so shutdown can account for it")
			return true
		})
	}
}

func goStmtTracked(pass *Pass, gs *ast.GoStmt) bool {
	// An argument of type context.Context makes the goroutine
	// cancelable regardless of what is being called.
	for _, arg := range gs.Call.Args {
		if isContextType(pass.TypeOf(arg)) {
			return true
		}
	}
	switch fun := gs.Call.Fun.(type) {
	case *ast.FuncLit:
		for _, field := range fun.Type.Params.List {
			if isContextType(pass.TypeOf(field.Type)) {
				return true
			}
		}
		return bodyTracked(pass, fun.Body)
	default:
		// Named function or method: cancelable if its signature takes
		// a context (the caller must then be passing one — covered by
		// the argument scan above for direct calls; bound methods and
		// conversions fall through to the signature check).
		if sig, isSig := pass.TypeOf(gs.Call.Fun).(*types.Signature); isSig {
			for i := 0; i < sig.Params().Len(); i++ {
				if isContextType(sig.Params().At(i).Type()) {
					return true
				}
			}
		}
		// Same-package callee: tracked if its body is (`go e.worker()`
		// where worker starts with `defer e.wg.Done()`).
		if body := calleeBody(pass, gs.Call.Fun); body != nil {
			return bodyTracked(pass, body)
		}
	}
	return false
}

// calleeBody resolves fun to a function or method declared in the
// package under analysis and returns its body, or nil.
func calleeBody(pass *Pass, fun ast.Expr) *ast.BlockStmt {
	var id *ast.Ident
	switch fun := fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	obj := pass.ObjectOf(id)
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != pass.Pkg.PkgPath {
		return nil
	}
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, isFunc := decl.(*ast.FuncDecl)
			if !isFunc || fd.Body == nil || fd.Name.Name != id.Name {
				continue
			}
			if pass.ObjectOf(fd.Name) == obj {
				return fd.Body
			}
		}
	}
	return nil
}

// bodyTracked reports whether the goroutine body references a
// context.Context value (captured ctx: select on ctx.Done(), passes
// it on) or is WaitGroup-tracked (calls Done/Add on a
// sync.WaitGroup).
func bodyTracked(pass *Pass, body *ast.BlockStmt) bool {
	tracked := false
	ast.Inspect(body, func(n ast.Node) bool {
		if tracked {
			return false
		}
		switch n := n.(type) {
		case *ast.Ident:
			if obj := pass.ObjectOf(n); obj != nil && isContextType(obj.Type()) {
				tracked = true
				return false
			}
		case *ast.CallExpr:
			if _, name, ok := methodCall(pass, n); ok && (name == "Done" || name == "Add") &&
				recvTypeIs(pass, n, "sync.WaitGroup") {
				tracked = true
				return false
			}
		}
		return true
	})
	return tracked
}

func isContextType(t types.Type) bool {
	return namedType(t) == "context.Context"
}
