package lint

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// AnalyzerLocks enforces the project's lock discipline in every
// package:
//
//   - no channel send/receive, blocking select, time.Sleep or
//     WaitGroup.Wait while a sync.Mutex/RWMutex is held (the engine's
//     deadlock class: a worker blocks on the queue channel holding
//     e.mu while Close waits for e.mu to drain the queue). A select
//     with a default clause is non-blocking and allowed — that is
//     exactly the engine's registered-enqueue idiom.
//   - no Lock/RLock without a reachable Unlock/RUnlock on the same
//     receiver in the same function (direct or deferred, including
//     inside function literals defined there).
//
// The held-set is threaded by the facts engine's walk (facts.go),
// which records each such operation with the longest-held receiver.
// It is intra-procedural and branch-local: each branch of an
// if/switch/select is walked with a copy of the held-set, so an
// early-return unlock inside a branch neither leaks out nor hides a
// fall-through hold, and every function literal is its own frame
// with an empty held-set. Lock handoff across functions is rare and
// intentional enough to deserve a //lint:ignore with its invariant
// spelled out.
var AnalyzerLocks = &Analyzer{
	Name:      "locks",
	Doc:       "channel op / blocking call under a held mutex; Lock without reachable Unlock",
	RunModule: runLocks,
}

func runLocks(mp *ModulePass) {
	for _, b := range mp.Facts.lockedBlocks {
		mp.Report(b.pos, nil, "%s while holding %s (locked at line %d)",
			b.what, b.recv, mp.Facts.Fset.Position(b.lockPos).Line)
	}
	for _, pkg := range mp.Facts.pkgs {
		pass := &Pass{Pkg: pkg}
		for _, file := range pkg.Files {
			funcBodies(file, func(name string, body *ast.BlockStmt) {
				balance(mp, pass, name, body)
			})
		}
	}
}

// mutexOp classifies call as a Lock/Unlock-family call on a mutex-ish
// receiver, returning the receiver expression.
func mutexOp(pass *Pass, call *ast.CallExpr) (recv ast.Expr, op string, ok bool) {
	recvExpr, name, isMethod := methodCall(pass, call)
	if !isMethod || len(call.Args) != 0 {
		return nil, "", false
	}
	switch name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return nil, "", false
	}
	if !mutexish(pass, recvExpr, call) {
		return nil, "", false
	}
	return recvExpr, name, true
}

// mutexish reports whether the Lock/Unlock receiver is (or embeds) a
// sync mutex. With full type info this is exact; on partial info it
// falls back to the project naming convention (mu / Mu / mutex /
// lock) so a type error elsewhere cannot hide a violation.
func mutexish(pass *Pass, recv ast.Expr, call *ast.CallExpr) bool {
	switch namedType(pass.TypeOf(recv)) {
	case "sync.Mutex", "sync.RWMutex":
		return true
	}
	if recvTypeIs(pass, call, "sync.Mutex") || recvTypeIs(pass, call, "sync.RWMutex") {
		return true
	}
	if pass.TypeOf(recv) != nil {
		return false // typed, and not a mutex (sync.Map, custom lockers...)
	}
	name := strings.ToLower(exprString(recv))
	if i := strings.LastIndex(name, "."); i >= 0 {
		name = name[i+1:]
	}
	return name == "mu" || name == "mutex" || strings.HasSuffix(name, "mu") || strings.HasSuffix(name, "lock")
}

// balance reports Lock calls with no matching Unlock on the same
// receiver anywhere in the function (including deferred calls and
// function literals defined inside it — closures that release a
// captured lock count as reachable).
func balance(mp *ModulePass, pass *Pass, name string, body *ast.BlockStmt) {
	locks := make(map[string][]token.Pos)
	unlocks := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return true
		}
		recvExpr, op, ok := mutexOp(pass, call)
		if !ok {
			return true
		}
		recv := exprString(recvExpr)
		switch op {
		case "Lock":
			locks["Lock:"+recv] = append(locks["Lock:"+recv], call.Pos())
		case "RLock":
			locks["RLock:"+recv] = append(locks["RLock:"+recv], call.Pos())
		case "Unlock":
			unlocks["Lock:"+recv] = true
		case "RUnlock":
			unlocks["RLock:"+recv] = true
		}
		return true
	})
	keys := make([]string, 0, len(locks))
	for k := range locks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if unlocks[k] {
			continue
		}
		recv := strings.TrimPrefix(strings.TrimPrefix(k, "Lock:"), "RLock:")
		op := "Unlock"
		if strings.HasPrefix(k, "RLock:") {
			op = "RUnlock"
		}
		for _, pos := range locks[k] {
			mp.Report(pos, nil, "%s locked with no reachable %s in %s", recv, op, name)
		}
	}
}
