package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
)

// AnalyzerCloseLeak checks close-on-all-paths for owned resources:
// http.Response bodies, os.Files and time.Tickers (acquired directly
// or returned fresh by a module function, per the facts engine's
// Returns summaries) must be released on every path out of the
// acquiring function — including the early error-returns between the
// acquisition and the eventual `defer Close()`. The analysis is
// path-sensitive per branch (like the locks analyzer) and deliberately
// conservative about escapes: a resource that is returned, stored,
// sent, handed to another function whole, or captured by a closure
// stops being this function's responsibility.
//
// Recognized idioms that do NOT count as leaks:
//   - `x, err := acquire(); if err != nil { return err }` — on the
//     error path the resource is nil (net/http and os contract).
//   - `if x != nil { x.Close() }` — the nil-guarded close releases on
//     the only path where the resource exists.
//   - passing the resource to a callee whose summary says it closes
//     that parameter.
//
// It additionally flags `time.After` inside a loop's select: each
// iteration allocates a timer that is not collected until it fires —
// with long waits that is an unbounded-lifetime leak per iteration;
// hoist a time.NewTimer/NewTicker and Stop it.
var AnalyzerCloseLeak = &Analyzer{
	Name:      "closeleak",
	Doc:       "http.Response.Body / os.File / time.Ticker not released on every path; time.After in loops",
	RunModule: runCloseLeak,
}

func runCloseLeak(mp *ModulePass) {
	for _, n := range mp.Facts.Graph.Nodes {
		if !mp.Config.Resourceful(n.Pkg) {
			continue
		}
		lw := &leakWalker{
			mp: mp, n: n, pass: &Pass{Pkg: n.Pkg},
			reported: make(map[types.Object]bool),
		}
		state := make(leakState)
		lw.block(n.Decl.Body.List, state)
		lw.endOfPath(state, n.Decl.Body.Rbrace, "end of function")
		timeAfterInLoop(mp, n)
	}
}

// openRes is one tracked resource: what it is, where it was acquired,
// and the error variable assigned alongside it (nil-on-error idiom).
type openRes struct {
	kind   ResourceKind
	pos    token.Pos
	errObj types.Object
}

// leakState maps a resource variable to its open record; branchy
// control flow clones it (maps.Clone) per path.
type leakState map[types.Object]*openRes

type leakWalker struct {
	mp       *ModulePass
	n        *FuncNode
	pass     *Pass
	reported map[types.Object]bool
}

func (lw *leakWalker) block(list []ast.Stmt, state leakState) {
	for _, s := range list {
		lw.stmt(s, state)
	}
}

func (lw *leakWalker) stmt(stmt ast.Stmt, state leakState) {
	switch s := stmt.(type) {
	case *ast.AssignStmt:
		lw.acquire(s, state)
		for _, rhs := range s.Rhs {
			lw.closeScan(state, rhs) // err := f.Close() and friends
			lw.escape(state, rhs)
		}
	case *ast.ExprStmt:
		lw.closeScan(state, s.X)
		lw.escape(state, s.X)
	case *ast.DeferStmt:
		lw.closeScan(state, s.Call)
		lw.escape(state, s.Call)
	case *ast.ReturnStmt:
		for _, res := range s.Results {
			lw.closeScan(state, res) // return f.Close()
			lw.escape(state, res)
		}
		lw.endOfPath(state, s.Pos(), "return")
	case *ast.SendStmt:
		lw.escape(state, s.Chan)
		lw.escape(state, s.Value)
	case *ast.GoStmt:
		// The goroutine takes over anything it references.
		lw.escape(state, s.Call)
	case *ast.IfStmt:
		lw.ifStmt(s, state)
	case *ast.ForStmt:
		if s.Init != nil {
			lw.stmt(s.Init, state)
		}
		body := maps.Clone(state)
		lw.block(s.Body.List, body)
		lw.reconcile(state, s.Body.Rbrace, false, body)
	case *ast.RangeStmt:
		lw.escape(state, s.X)
		body := maps.Clone(state)
		lw.block(s.Body.List, body)
		lw.reconcile(state, s.Body.Rbrace, false, body)
	case *ast.BlockStmt:
		inner := maps.Clone(state)
		lw.block(s.List, inner)
		lw.reconcile(state, s.Rbrace, true, inner)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		lw.clauses(stmt, state)
	case *ast.LabeledStmt:
		lw.stmt(s.Stmt, state)
	}
}

func (lw *leakWalker) ifStmt(s *ast.IfStmt, state leakState) {
	if s.Init != nil {
		lw.stmt(s.Init, state)
	}
	errObj, op, condObj := lw.guard(s.Cond)

	thenState := maps.Clone(state)
	if errObj != nil && op == token.NEQ {
		// `if err != nil`: the paired resource is nil on this path.
		dropErrPaired(thenState, errObj)
	}
	lw.block(s.Body.List, thenState)

	var elseState leakState
	if s.Else != nil {
		elseState = maps.Clone(state)
		if errObj != nil && op == token.EQL {
			dropErrPaired(elseState, errObj)
		}
		lw.stmt(s.Else, elseState)
	}

	// Nil-guarded close: `if x != nil { x.Close() }` releases x on the
	// only path where it is open.
	if condObj != nil && op == token.NEQ {
		if _, open := state[condObj]; open {
			if _, still := thenState[condObj]; !still {
				delete(state, condObj)
			}
		}
	}
	if elseState != nil {
		lw.reconcile(state, s.End(), true, thenState, elseState)
	} else {
		lw.reconcile(state, s.End(), false, thenState)
	}
}

// guard decodes a `x != nil` / `x == nil` condition: errObj when x is
// an error variable, condObj when x is a tracked-resource candidate.
func (lw *leakWalker) guard(cond ast.Expr) (errObj types.Object, op token.Token, condObj types.Object) {
	be, isBin := ast.Unparen(cond).(*ast.BinaryExpr)
	if !isBin || (be.Op != token.NEQ && be.Op != token.EQL) {
		return nil, 0, nil
	}
	x, y := ast.Unparen(be.X), ast.Unparen(be.Y)
	if isNilIdent(x) {
		x, y = y, x
	}
	if !isNilIdent(y) {
		return nil, 0, nil
	}
	id, isIdent := x.(*ast.Ident)
	if !isIdent {
		return nil, 0, nil
	}
	obj := lw.pass.ObjectOf(id)
	if obj == nil {
		return nil, 0, nil
	}
	if obj.Type() != nil && obj.Type().String() == "error" {
		return obj, be.Op, nil
	}
	return nil, be.Op, obj
}

func isNilIdent(e ast.Expr) bool {
	id, isIdent := e.(*ast.Ident)
	return isIdent && id.Name == "nil"
}

func dropErrPaired(state leakState, errObj types.Object) {
	for obj, res := range state {
		if res.errObj == errObj {
			delete(state, obj)
		}
	}
}

// clauses walks switch/select bodies, one clone per clause.
func (lw *leakWalker) clauses(stmt ast.Stmt, state leakState) {
	var body *ast.BlockStmt
	switch s := stmt.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			lw.stmt(s.Init, state)
		}
		if s.Tag != nil {
			lw.escape(state, s.Tag)
		}
		body = s.Body
	case *ast.TypeSwitchStmt:
		body = s.Body
	case *ast.SelectStmt:
		body = s.Body
	}
	var clones []leakState
	for _, cc := range body.List {
		clone := maps.Clone(state)
		switch c := cc.(type) {
		case *ast.CaseClause:
			lw.block(c.Body, clone)
		case *ast.CommClause:
			lw.block(c.Body, clone)
		}
		clones = append(clones, clone)
	}
	lw.reconcile(state, body.Rbrace, false, clones...)
}

// reconcile folds branch clones back into the parent state:
//   - a resource every clone released disappears from the parent too,
//     when the clones cover every path (covers);
//   - a resource opened inside a branch either outlives the branch
//     (its variable is declared outside — the parent keeps tracking
//     it) or dies with the branch scope, in which case staying open is
//     a leak right here.
func (lw *leakWalker) reconcile(parent leakState, endPos token.Pos, covers bool, clones ...leakState) {
	if covers && len(clones) > 0 {
		for obj := range parent {
			releasedEverywhere := true
			for _, c := range clones {
				if _, open := c[obj]; open {
					releasedEverywhere = false
					break
				}
			}
			if releasedEverywhere {
				delete(parent, obj)
			}
		}
	}
	for _, c := range clones {
		for obj, res := range c {
			if _, known := parent[obj]; known {
				continue
			}
			if scopeOutlives(obj, endPos) {
				parent[obj] = res
				continue
			}
			lw.leak(obj, res, endPos, "end of block")
		}
	}
}

// scopeOutlives reports whether obj's declaration scope extends past
// pos (the variable survives the block that just ended).
func scopeOutlives(obj types.Object, pos token.Pos) bool {
	scope := obj.Parent()
	if scope == nil {
		return true // fields, package level: not ours to report here
	}
	return scope.End() > pos
}

// endOfPath reports every still-open resource at a path exit and
// clears them from this path's state.
func (lw *leakWalker) endOfPath(state leakState, pos token.Pos, how string) {
	for obj, res := range state {
		lw.leak(obj, res, pos, how)
		delete(state, obj)
	}
}

func (lw *leakWalker) leak(obj types.Object, res *openRes, exitPos token.Pos, how string) {
	if obj == nil || lw.reported[obj] {
		return
	}
	lw.reported[obj] = true
	exitLine := lw.mp.Facts.Fset.Position(exitPos).Line
	chain := []ChainFrame{
		lw.mp.Facts.frame(res.pos, lw.n.Key, "acquires "+res.kind.String()),
		lw.mp.Facts.frame(exitPos, lw.n.Key, how+" without "+res.kind.releaseVerb()),
	}
	lw.mp.Report(res.pos, chain,
		"%s %q acquired here is not %s on every path (%s at line %d leaves it open)",
		res.kind, obj.Name(), res.kind.released(), how, exitLine)
}

// acquire records resources the assignment brings into scope, pairing
// them with the error result assigned alongside.
func (lw *leakWalker) acquire(s *ast.AssignStmt, state leakState) {
	if len(s.Rhs) != 1 {
		return
	}
	call, isCall := ast.Unparen(s.Rhs[0]).(*ast.CallExpr)
	if !isCall {
		return
	}
	kinds := lw.mp.Facts.allocates(lw.pass, call)
	if len(kinds) == 0 {
		return
	}
	var errObj types.Object
	for _, lhs := range s.Lhs {
		if id, isIdent := lhs.(*ast.Ident); isIdent {
			if obj := lw.pass.ObjectOf(id); obj != nil && obj.Type() != nil &&
				obj.Type().String() == "error" {
				errObj = obj
			}
		}
	}
	for i, kind := range kinds {
		if kind == NoResource || i >= len(s.Lhs) {
			continue
		}
		id, isIdent := s.Lhs[i].(*ast.Ident)
		if !isIdent || id.Name == "_" {
			continue
		}
		obj := lw.pass.ObjectOf(id)
		if obj == nil {
			continue
		}
		state[obj] = &openRes{kind: kind, pos: call.Pos(), errObj: errObj}
	}
}

// closeScan releases resources the subtree closes: x.Close(),
// x.Stop(), x.Body.Close(), or passing x to a callee whose summary
// closes that parameter.
func (lw *leakWalker) closeScan(state leakState, root ast.Node) {
	ast.Inspect(root, func(nd ast.Node) bool {
		call, isCall := nd.(*ast.CallExpr)
		if !isCall {
			return true
		}
		if recv, name, ok := methodCall(lw.pass, call); ok && (name == "Close" || name == "Stop") {
			base := recv
			if se, isSel := ast.Unparen(recv).(*ast.SelectorExpr); isSel && se.Sel.Name == "Body" {
				base = se.X
			}
			if id, isIdent := ast.Unparen(base).(*ast.Ident); isIdent {
				if obj := lw.pass.ObjectOf(id); obj != nil {
					delete(state, obj)
				}
			}
		}
		if callee := lw.mp.Facts.Graph.resolveCallee(lw.pass.Pkg, call); callee != nil &&
			callee.Summary.ClosesParams != 0 {
			for ai, arg := range call.Args {
				if ai >= 64 || callee.Summary.ClosesParams&(1<<ai) == 0 {
					continue
				}
				if id, isIdent := ast.Unparen(arg).(*ast.Ident); isIdent {
					if obj := lw.pass.ObjectOf(id); obj != nil {
						delete(state, obj)
					}
				}
			}
		}
		return true
	})
}

// escape releases tracking for resources the expression hands away
// whole: a bare identifier (aliased, returned, passed, stored, sent,
// captured) transfers ownership; `x.Body` / `x.Field` / `x.Method()`
// uses do not.
func (lw *leakWalker) escape(state leakState, root ast.Node) {
	if root == nil || len(state) == 0 {
		return
	}
	ast.Inspect(root, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.SelectorExpr:
			if id, isIdent := ast.Unparen(nd.X).(*ast.Ident); isIdent {
				if obj := lw.pass.ObjectOf(id); obj != nil {
					if _, open := state[obj]; open {
						return false // usage of a field/method, not an escape
					}
				}
			}
		case *ast.FuncLit:
			// A closure that closes the resource releases it; any other
			// capture is an escape — keep inspecting its body either way.
			lw.closeScan(state, nd.Body)
			return true
		case *ast.Ident:
			if obj := lw.pass.ObjectOf(nd); obj != nil {
				delete(state, obj)
			}
		}
		return true
	})
}

// timeAfterInLoop flags `<-time.After(d)` inside a for/range loop
// (typically in a select): one timer allocation per iteration, alive
// until it fires.
func timeAfterInLoop(mp *ModulePass, n *FuncNode) {
	pass := &Pass{Pkg: n.Pkg}
	var loops func(node ast.Node, inLoop bool)
	loops = func(node ast.Node, inLoop bool) {
		ast.Inspect(node, func(nd ast.Node) bool {
			switch nd := nd.(type) {
			case *ast.ForStmt:
				loops(nd.Body, true)
				return false
			case *ast.RangeStmt:
				loops(nd.Body, true)
				return false
			case *ast.CallExpr:
				if !inLoop {
					return true
				}
				if pkgPath, name, ok := pkgFuncCall(pass, n.File, nd); ok &&
					pkgPath == "time" && name == "After" {
					chain := []ChainFrame{mp.Facts.frame(nd.Pos(), n.Key, "time.After per loop iteration")}
					mp.Report(nd.Pos(), chain,
						"time.After in a loop allocates a timer every iteration that lives until it fires; hoist a time.NewTimer/NewTicker and Stop it")
				}
			}
			return true
		})
	}
	loops(n.Decl.Body, false)
}
