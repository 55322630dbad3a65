package lint

import (
	"go/ast"
	"strings"
)

// AnalyzerFsyncDir polices the atomic-install idiom in the durable
// packages (durable, journal, store): a file becomes durable only when
// the tmp-write + fsync + os.Rename sequence ends with an fsync of the
// parent directory — the rename itself lives in the directory entry,
// and a crash before the directory block reaches disk silently undoes
// it. The analyzer flags any os.Rename in a durable package that is
// not followed, later in the same function frame, by a call whose
// name marks the directory sync (the project convention is syncDir;
// any callee whose name contains "syncdir" counts, case-insensitive).
var AnalyzerFsyncDir = &Analyzer{
	Name: "fsyncdir",
	Doc:  "os.Rename on a durability path without a following parent-directory fsync",
	Run:  runFsyncDir,
}

func runFsyncDir(pass *Pass) {
	if !pass.Config.Durable(pass.Pkg) {
		return
	}
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			if fd, isFunc := decl.(*ast.FuncDecl); isFunc && fd.Body != nil {
				fsyncDirFrame(pass, file, fd.Body)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if fl, isLit := n.(*ast.FuncLit); isLit && fl.Body != nil {
				fsyncDirFrame(pass, file, fl.Body)
			}
			return true
		})
	}
}

// fsyncDirFrame checks one function frame: every os.Rename in it must
// have a directory-sync call at a later position. Nested function
// literals are skipped — each is its own frame (a rename deferred into
// a literal is paired with the sync in that literal).
func fsyncDirFrame(pass *Pass, file *ast.File, body *ast.BlockStmt) {
	var renames []*ast.CallExpr
	var syncEnds []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, isLit := n.(*ast.FuncLit); isLit && fl != nil {
			return false
		}
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return true
		}
		if pkgPath, name, ok := pkgFuncCall(pass, file, call); ok && pkgPath == "os" && name == "Rename" {
			renames = append(renames, call)
			return true
		}
		if isDirSyncCall(call) {
			syncEnds = append(syncEnds, call)
		}
		return true
	})
	for _, r := range renames {
		followed := false
		for _, s := range syncEnds {
			if s.Pos() > r.End() {
				followed = true
				break
			}
		}
		if !followed {
			pass.Reportf(r.Pos(),
				"os.Rename on the durability path is not followed by a parent-directory fsync: call syncDir(dir) after the rename, or the entry can vanish on crash")
		}
	}
}

// isDirSyncCall matches the directory-sync convention by callee name:
// syncDir, fsyncDir, SyncDir, d.syncDir, ...
func isDirSyncCall(call *ast.CallExpr) bool {
	var name string
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	default:
		return false
	}
	return strings.Contains(strings.ToLower(name), "syncdir")
}
