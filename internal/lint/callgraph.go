package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// The interprocedural layer starts from a module-wide call graph:
// every function declaration of every loaded package is a node, and a
// resolved call site is an edge. Resolution covers same-package
// callees and cross-package callees (the normal exported-function and
// method cases) through the type checker's Uses map — the loader
// type-checks the module in dependency order with one shared importer,
// so a *types.Func seen at a call site in internal/cluster is the very
// object defined in internal/engine. Interface-method calls, function
// values and method values stay unresolved; the facts engine treats
// them as opaque (a soundness limit documented in DESIGN.md).

// FuncKey names one function declaration module-wide, in the
// go/types.Func FullName form: "repro/internal/engine.SpecDigest" for
// a function, "(*repro/internal/engine.Engine).Submit" for a method.
type FuncKey string

// CallSite is one resolved call from Caller to Callee.
type CallSite struct {
	Caller *FuncNode
	Callee *FuncNode
	// Pos positions the call expression.
	Pos token.Pos
	// Call is the call expression itself (argument inspection).
	Call *ast.CallExpr
	// Held snapshots the lock classes held at the call (see facts.go
	// for the lock-class naming).
	Held []string
	// Async marks a call that runs outside the caller's control flow: a
	// `go` statement, or any call inside a goroutine-launched function
	// literal. Async edges propagate no caller-visible facts (the
	// caller does not block on them and does not hold its locks around
	// them).
	Async bool
}

// FuncNode is one function declaration with its resolved call sites
// and computed summary.
type FuncNode struct {
	Key  FuncKey
	Pkg  *Package
	File *ast.File
	Decl *ast.FuncDecl
	Obj  *types.Func

	// Calls are the resolved module-local call sites in source order.
	Calls []*CallSite

	// Summary holds the fixed-point facts (facts.go).
	Summary Summary

	// intra facts recorded by the walker, inputs to the fixed point.
	ownAcquires map[string]token.Pos
	lockEdges   []lockEdge // intra-procedural acquisition-order edges

	// taintedVars is the final intra-procedural taint environment
	// (object -> mark), kept for the nondetflow reporting walk.
	taintedVars map[types.Object]taintMark

	// resources: objects acquired in this function (closeleak.go).
	scc int // SCC index (callees-first order)
}

// lockEdge is one acquisition-order edge: "to" acquired while "from"
// held, at pos inside node. via is the call site that imported the
// acquisition from a callee (nil when the Lock call is right here).
type lockEdge struct {
	from, to string
	pos      token.Pos
	node     *FuncNode
	via      *CallSite
}

// CallGraph indexes the module's function declarations.
type CallGraph struct {
	// Nodes in deterministic source order: packages as loaded (sorted
	// directories), files sorted within a package, declarations in
	// position order.
	Nodes []*FuncNode

	byKey map[FuncKey]*FuncNode
	byObj map[*types.Func]*FuncNode

	// SCCs are the strongly connected components of the synchronous
	// (non-Async) call relation, callees before callers, so one pass in
	// this order reaches the fixed point for the acyclic part and only
	// cycles iterate.
	SCCs [][]*FuncNode
}

func (g *CallGraph) nodeByObj(o *types.Func) *FuncNode {
	if o == nil {
		return nil
	}
	if n, ok := g.byObj[o]; ok {
		return n
	}
	// Cross-load identity fallback (should not trigger with the shared
	// importer, but a partial type check can intern a second object).
	if n, ok := g.byKey[FuncKey(o.FullName())]; ok {
		return n
	}
	return nil
}

// buildCallGraph collects the nodes of pkgs. Call sites are resolved
// later by the facts walker (it threads lock state while it walks).
func buildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		byKey: make(map[FuncKey]*FuncNode),
		byObj: make(map[*types.Func]*FuncNode),
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, isFunc := decl.(*ast.FuncDecl)
				if !isFunc || fd.Body == nil {
					continue
				}
				var obj *types.Func
				if pkg.Info != nil {
					if o, isFn := pkg.Info.Defs[fd.Name].(*types.Func); isFn {
						obj = o
					}
				}
				key := FuncKey(pkg.PkgPath + "." + fd.Name.Name)
				if obj != nil {
					key = FuncKey(obj.FullName())
				}
				n := &FuncNode{
					Key: key, Pkg: pkg, File: file, Decl: fd, Obj: obj,
					ownAcquires: make(map[string]token.Pos),
				}
				g.Nodes = append(g.Nodes, n)
				g.byKey[key] = n
				if obj != nil {
					g.byObj[obj] = n
				}
			}
		}
	}
	return g
}

// resolveCallee maps a call expression to its FuncNode: a direct call
// to a declared function or a concrete method of a module package.
// Interface dispatch and function values return nil.
func (g *CallGraph) resolveCallee(pkg *Package, call *ast.CallExpr) *FuncNode {
	if pkg.Info == nil {
		return nil
	}
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	obj, _ := pkg.Info.Uses[id].(*types.Func)
	if obj == nil {
		return nil
	}
	if sig, isSig := obj.Type().(*types.Signature); isSig && sig.Recv() != nil {
		// Interface methods have no body to resolve to; nodeByObj
		// misses them and we correctly return nil.
		if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
			return nil
		}
	}
	return g.nodeByObj(obj)
}

// computeSCCs runs Tarjan over the synchronous call relation and
// stores components callees-first. Node order inside a component and
// the component order itself are deterministic (derived from the
// deterministic Nodes order).
func (g *CallGraph) computeSCCs() {
	index := make(map[*FuncNode]int)
	low := make(map[*FuncNode]int)
	onStack := make(map[*FuncNode]bool)
	var stack []*FuncNode
	next := 0
	var sccs [][]*FuncNode

	// Iterative Tarjan (module bodies nest deep enough that recursion
	// depth is still fine, but iteration avoids any pathological case).
	type frame struct {
		n  *FuncNode
		ei int
	}
	edges := func(n *FuncNode) []*CallSite { return n.Calls }
	for _, root := range g.Nodes {
		if _, seen := index[root]; seen {
			continue
		}
		work := []frame{{n: root}}
		for len(work) > 0 {
			fr := &work[len(work)-1]
			n := fr.n
			if fr.ei == 0 {
				index[n] = next
				low[n] = next
				next++
				stack = append(stack, n)
				onStack[n] = true
			}
			advanced := false
			for fr.ei < len(edges(n)) {
				cs := edges(n)[fr.ei]
				fr.ei++
				if cs.Async || cs.Callee == nil {
					continue
				}
				m := cs.Callee
				if _, seen := index[m]; !seen {
					work = append(work, frame{n: m})
					advanced = true
					break
				} else if onStack[m] && index[m] < low[n] {
					low[n] = index[m]
				}
			}
			if advanced {
				continue
			}
			if low[n] == index[n] {
				var comp []*FuncNode
				for {
					m := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[m] = false
					comp = append(comp, m)
					if m == n {
						break
					}
				}
				sort.Slice(comp, func(i, j int) bool { return comp[i].Decl.Pos() < comp[j].Decl.Pos() })
				for _, m := range comp {
					m.scc = len(sccs)
				}
				sccs = append(sccs, comp)
				work = work[:len(work)-1]
				continue
			}
			work = work[:len(work)-1]
			parent := &work[len(work)-1]
			if low[n] < low[parent.n] {
				low[parent.n] = low[n]
			}
		}
	}
	g.SCCs = sccs
}
