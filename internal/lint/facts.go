package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"sort"
	"strings"
)

// The facts engine computes one Summary per function declaration and
// propagates it bottom-up over the strongly connected components of
// the call graph until a fixed point. The summary is a join
// semilattice — every field only ever grows (false -> true, sets grow,
// bitmasks accumulate) — so iteration inside an SCC terminates.
//
// Summaries carry provenance: the call site a fact was inherited
// through, so a diagnostic can print the whole propagation chain
// ("Submit calls enqueue, enqueue calls journal.Append, Append
// blocks") instead of a bare conclusion.
//
// Soundness limits (see DESIGN.md): calls through interfaces,
// function values and method values are opaque (their effects are
// missed); goroutine-launched code contributes no facts to its
// spawner; locks are tracked as classes (owner type + field), not
// instances, so two locks of the same class on different objects are
// not distinguished.

// ResourceKind classifies a value that must be released.
type ResourceKind int

// Resource kinds closeleak tracks.
const (
	NoResource ResourceKind = iota
	// ResBody is an *http.Response whose Body must be closed.
	ResBody
	// ResFile is an *os.File that must be closed.
	ResFile
	// ResTicker is a *time.Ticker that must be stopped.
	ResTicker
)

func (k ResourceKind) String() string {
	switch k {
	case ResBody:
		return "http.Response.Body"
	case ResFile:
		return "os.File"
	case ResTicker:
		return "time.Ticker"
	}
	return "none"
}

// releaseVerb is what the diagnostic tells the reader to call.
func (k ResourceKind) releaseVerb() string {
	if k == ResTicker {
		return "Stop"
	}
	return "Close"
}

// released is the past-tense form for messages.
func (k ResourceKind) released() string {
	if k == ResTicker {
		return "stopped"
	}
	return "closed"
}

// Acquire records how a function (possibly transitively) acquires a
// lock class.
type Acquire struct {
	// Pos is the Lock call (Via == nil) or the call site the
	// acquisition is inherited through.
	Pos token.Pos
	// Via is the call edge the fact came through; nil means the lock
	// is taken directly in this function.
	Via *CallSite
}

// Summary is the per-function fact record, the lattice element the
// SCC fixed point joins.
type Summary struct {
	// Blocking: the function may block indefinitely (channel op,
	// blocking select, time.Sleep, WaitGroup.Wait, network/exec call,
	// or a call to a blocking callee).
	Blocking    bool
	BlockingWhy string
	BlockingPos token.Pos
	// BlockingVia is the call edge blocking was inherited through; nil
	// when this function blocks directly.
	BlockingVia *CallSite

	// Acquires maps lock class -> how this function may acquire it
	// (directly or via a callee), on its synchronous path.
	Acquires map[string]*Acquire

	// CtxParams are the indices of context.Context parameters.
	CtxParams []int

	// TaintedReturn: some return value derives from a nondeterministic
	// source (unseeded math/rand, time.Now/Since, map iteration
	// order).
	TaintedReturn bool
	TaintWhy      string
	TaintPos      token.Pos
	TaintVia      *CallSite

	// ParamToReturn bit i: parameter i may flow into a return value
	// (coarse: any return).
	ParamToReturn uint64

	// Returns classifies each result that hands a freshly acquired
	// resource to the caller (ownership transfer).
	Returns []ResourceKind
	// ClosesParams bit i: parameter i's resource is released by this
	// function (directly or via a callee).
	ClosesParams uint64
}

// Facts is the module-wide fact base: the call graph with computed
// summaries plus the global lock-acquisition-order edges.
type Facts struct {
	Graph *CallGraph
	Cfg   *Config
	Fset  *token.FileSet

	// lockEdges: first witness per (from, to) lock-class pair, in
	// deterministic order.
	lockEdges []lockEdge
	edgeIndex map[[2]string]*lockEdge
}

// BuildFacts runs the interprocedural analysis over the loaded
// packages: intra-procedural walks, SCC computation, bottom-up
// fixed point, then the global lock-order edge set.
func BuildFacts(pkgs []*Package, cfg *Config) *Facts {
	if cfg == nil {
		cfg = DefaultConfig()
	}
	var fset *token.FileSet
	if len(pkgs) > 0 {
		fset = pkgs[0].Fset
	}
	f := &Facts{
		Graph:     buildCallGraph(pkgs),
		Cfg:       cfg,
		Fset:      fset,
		edgeIndex: make(map[[2]string]*lockEdge),
	}
	for _, n := range f.Graph.Nodes {
		fw := &factWalker{facts: f, node: n, pass: &Pass{Pkg: n.Pkg}}
		n.Summary.Acquires = make(map[string]*Acquire)
		n.Summary.CtxParams = ctxParamIndices(n)
		fw.walk()
	}
	f.Graph.computeSCCs()
	for _, comp := range f.Graph.SCCs {
		for changed := true; changed; {
			changed = false
			for _, n := range comp {
				if f.propagate(n) {
					changed = true
				}
			}
		}
		for changed := true; changed; {
			changed = false
			for _, n := range comp {
				if f.recomputeTaint(n) {
					changed = true
				}
			}
		}
	}
	f.collectLockEdges()
	return f
}

// ctxParamIndices finds the context.Context parameters of n.
func ctxParamIndices(n *FuncNode) []int {
	if n.Obj == nil {
		return nil
	}
	sig, isSig := n.Obj.Type().(*types.Signature)
	if !isSig {
		return nil
	}
	var out []int
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			out = append(out, i)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Intrinsic fact tables (keyed by go/types FullName).

// blockingStd names standard-library calls that may block
// indefinitely. Mutex operations are deliberately absent: critical
// sections are assumed short, and including them would make every
// lock user "blocking" for ctxflow.
var blockingStd = map[string]string{
	"time.Sleep":                        "time.Sleep",
	"(*sync.WaitGroup).Wait":            "WaitGroup.Wait",
	"(*sync.Cond).Wait":                 "Cond.Wait",
	"(*net/http.Client).Do":             "http.Client.Do",
	"(*net/http.Client).Get":            "http.Client.Get",
	"(*net/http.Client).Post":           "http.Client.Post",
	"(*net/http.Client).PostForm":       "http.Client.PostForm",
	"(*net/http.Client).Head":           "http.Client.Head",
	"net/http.Get":                      "http.Get",
	"net/http.Post":                     "http.Post",
	"net/http.PostForm":                 "http.PostForm",
	"net/http.Head":                     "http.Head",
	"net.Dial":                          "net.Dial",
	"net.DialTimeout":                   "net.DialTimeout",
	"net.Listen":                        "net.Listen",
	"(*os/exec.Cmd).Run":                "exec.Cmd.Run",
	"(*os/exec.Cmd).Wait":               "exec.Cmd.Wait",
	"(*os/exec.Cmd).Output":             "exec.Cmd.Output",
	"(*os/exec.Cmd).CombinedOutput":     "exec.Cmd.CombinedOutput",
	"(*net/http.Server).ListenAndServe": "http.Server.ListenAndServe",
	"net/http.ListenAndServe":           "http.ListenAndServe",
	"(*net/http.Server).Serve":          "http.Server.Serve",
}

// allocatorStd names standard-library calls whose first result is a
// fresh resource the caller must release.
var allocatorStd = map[string]ResourceKind{
	"net/http.Get":                ResBody,
	"net/http.Post":               ResBody,
	"net/http.PostForm":           ResBody,
	"net/http.Head":               ResBody,
	"(*net/http.Client).Do":       ResBody,
	"(*net/http.Client).Get":      ResBody,
	"(*net/http.Client).Post":     ResBody,
	"(*net/http.Client).PostForm": ResBody,
	"(*net/http.Client).Head":     ResBody,
	"os.Open":                     ResFile,
	"os.Create":                   ResFile,
	"os.OpenFile":                 ResFile,
	"os.CreateTemp":               ResFile,
	"time.NewTicker":              ResTicker,
}

// calleeFullName resolves a call's callee FullName via type info
// ("time.Sleep", "(*sync.WaitGroup).Wait"), or "".
func calleeFullName(pass *Pass, call *ast.CallExpr) string {
	if pass.Pkg.Info == nil {
		return ""
	}
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return ""
	}
	if fn, isFn := pass.Pkg.Info.Uses[id].(*types.Func); isFn {
		return fn.FullName()
	}
	return ""
}

// nondetSource classifies a call as a nondeterminism source,
// returning a human-readable name.
func nondetSource(pass *Pass, file *ast.File, call *ast.CallExpr) (string, bool) {
	pkgPath, name, ok := pkgFuncCall(pass, file, call)
	if !ok {
		return "", false
	}
	switch pkgPath {
	case "math/rand", "math/rand/v2":
		if !randConstructors[name] {
			return "unseeded " + pkgPath + "." + name, true
		}
	case "time":
		if name == "Now" || name == "Since" {
			return "time." + name, true
		}
	}
	return "", false
}

// ---------------------------------------------------------------------------
// Lock classes.

// lockClassKey names the lock class a Lock/Unlock receiver belongs
// to: the owning named type plus field ("repro/internal/engine.Engine.mu"),
// a package-level variable ("repro/internal/foo.registryMu"), or a
// function-scoped rendering for locals.
func lockClassKey(pass *Pass, owner FuncKey, recv ast.Expr) string {
	switch e := ast.Unparen(recv).(type) {
	case *ast.SelectorExpr:
		if base := namedType(pass.TypeOf(e.X)); base != "" {
			return base + "." + e.Sel.Name
		}
		if id, isIdent := e.X.(*ast.Ident); isIdent {
			if obj := pass.ObjectOf(id); obj != nil {
				if pn, isPkg := obj.(*types.PkgName); isPkg {
					return pn.Imported().Path() + "." + e.Sel.Name
				}
			}
		}
		return exprString(recv)
	case *ast.Ident:
		if obj := pass.ObjectOf(e); obj != nil && obj.Pkg() != nil {
			if obj.Parent() == obj.Pkg().Scope() {
				return obj.Pkg().Path() + "." + obj.Name()
			}
			if base := namedType(obj.Type()); base != "" && base != "sync.Mutex" && base != "sync.RWMutex" {
				// Embedded mutex: e.Lock() on the owning struct.
				return base
			}
		}
		return string(owner) + "/" + e.Name // function-local
	}
	return exprString(recv)
}

// ---------------------------------------------------------------------------
// Intra-procedural walk: locks held, blocking witnesses, call sites.

type factWalker struct {
	facts *Facts
	node  *FuncNode
	pass  *Pass
	// async: walking a goroutine-launched body — facts recorded there
	// stay local (Async call sites, no ownAcquires/blocking).
	async bool
}

func (fw *factWalker) walk() {
	held := make(lockState)
	fw.stmts(fw.node.Decl.Body.List, held)
}

func (fw *factWalker) heldKeys(held lockState) []string {
	if len(held) == 0 {
		return nil
	}
	keys := make([]string, 0, len(held))
	for k := range held {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (fw *factWalker) stmts(list []ast.Stmt, held lockState) {
	for _, s := range list {
		fw.stmt(s, held)
	}
}

func (fw *factWalker) stmt(stmt ast.Stmt, held lockState) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, isCall := s.X.(*ast.CallExpr); isCall {
			if recv, op, ok := mutexOp(fw.pass, call); ok {
				key := lockClassKey(fw.pass, fw.node.Key, recv)
				switch op {
				case "Lock", "RLock":
					for _, from := range fw.heldKeys(held) {
						if from != key {
							fw.node.lockEdges = append(fw.node.lockEdges,
								lockEdge{from: from, to: key, pos: call.Pos(), node: fw.node})
						}
					}
					if !fw.async {
						if _, seen := fw.node.ownAcquires[key]; !seen {
							fw.node.ownAcquires[key] = call.Pos()
						}
					}
					held[key] = call.Pos()
				case "Unlock", "RUnlock":
					delete(held, key)
				}
				return
			}
		}
		fw.scan(s.X, held)
	case *ast.DeferStmt:
		if _, op, ok := mutexOp(fw.pass, s.Call); ok && (op == "Unlock" || op == "RUnlock") {
			return // held until return; keep it in the set
		}
		fw.scan(s.Call, held)
	case *ast.SendStmt:
		fw.blockingWitness(s.Pos(), "channel send")
		fw.scan(s.Chan, held)
		fw.scan(s.Value, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			fw.scan(e, held)
		}
		for _, e := range s.Lhs {
			fw.scan(e, held)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			fw.scan(e, held)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			fw.stmt(s.Init, held)
		}
		fw.scan(s.Cond, held)
		fw.stmts(s.Body.List, held.clone())
		if s.Else != nil {
			fw.stmt(s.Else, held.clone())
		}
	case *ast.ForStmt:
		if s.Init != nil {
			fw.stmt(s.Init, held)
		}
		if s.Cond != nil {
			fw.scan(s.Cond, held)
		}
		fw.stmts(s.Body.List, held.clone())
	case *ast.RangeStmt:
		fw.scan(s.X, held)
		fw.stmts(s.Body.List, held.clone())
	case *ast.BlockStmt:
		fw.stmts(s.List, held.clone())
	case *ast.SwitchStmt:
		if s.Init != nil {
			fw.stmt(s.Init, held)
		}
		if s.Tag != nil {
			fw.scan(s.Tag, held)
		}
		for _, cc := range s.Body.List {
			if c, isCase := cc.(*ast.CaseClause); isCase {
				fw.stmts(c.Body, held.clone())
			}
		}
	case *ast.TypeSwitchStmt:
		for _, cc := range s.Body.List {
			if c, isCase := cc.(*ast.CaseClause); isCase {
				fw.stmts(c.Body, held.clone())
			}
		}
	case *ast.SelectStmt:
		hasDefault := false
		for _, cc := range s.Body.List {
			if c, isComm := cc.(*ast.CommClause); isComm && c.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			fw.blockingWitness(s.Pos(), "blocking select")
		}
		for _, cc := range s.Body.List {
			if c, isComm := cc.(*ast.CommClause); isComm {
				fw.stmts(c.Body, held.clone())
			}
		}
	case *ast.GoStmt:
		// The goroutine's body runs outside this frame: walk it in
		// async mode (its own lock nesting is recorded; nothing
		// propagates to this function's summary).
		for _, a := range s.Call.Args {
			fw.scan(a, held)
		}
		if lit, isLit := s.Call.Fun.(*ast.FuncLit); isLit {
			sub := &factWalker{facts: fw.facts, node: fw.node, pass: fw.pass, async: true}
			sub.stmts(lit.Body.List, make(lockState))
		} else if callee := fw.facts.Graph.resolveCallee(fw.pass.Pkg, s.Call); callee != nil {
			fw.node.Calls = append(fw.node.Calls, &CallSite{
				Caller: fw.node, Callee: callee, Pos: s.Call.Pos(), Call: s.Call, Async: true,
			})
		}
	case *ast.LabeledStmt:
		fw.stmt(s.Stmt, held)
	case *ast.DeclStmt:
		fw.scan(s, held)
	case *ast.IncDecStmt:
		fw.scan(s.X, held)
	}
}

// scan inspects an expression subtree for call sites, blocking
// operations and nested function literals.
func (fw *factWalker) scan(root ast.Node, held lockState) {
	if root == nil {
		return
	}
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A non-go literal may run synchronously (deferred,
			// immediately invoked, passed to retry.Do): its calls count
			// for the enclosing summary, but with an empty held-set —
			// when it actually runs is unknown.
			sub := &factWalker{facts: fw.facts, node: fw.node, pass: fw.pass, async: fw.async}
			sub.stmts(n.Body.List, make(lockState))
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				fw.blockingWitness(n.Pos(), "channel receive")
			}
		case *ast.SelectStmt:
			// reached via DeclStmt scan; handled by stmt() elsewhere
		case *ast.CallExpr:
			fw.callSite(n, held)
		}
		return true
	})
}

// callSite records one call expression: a resolved module-local edge
// and/or an intrinsic blocking witness.
func (fw *factWalker) callSite(call *ast.CallExpr, held lockState) {
	if full := calleeFullName(fw.pass, call); full != "" {
		if why, isBlocking := blockingStd[full]; isBlocking {
			fw.blockingWitness(call.Pos(), why)
		}
	}
	if callee := fw.facts.Graph.resolveCallee(fw.pass.Pkg, call); callee != nil {
		fw.node.Calls = append(fw.node.Calls, &CallSite{
			Caller: fw.node, Callee: callee, Pos: call.Pos(), Call: call,
			Held: fw.heldKeys(held), Async: fw.async,
		})
	}
}

func (fw *factWalker) blockingWitness(pos token.Pos, why string) {
	if fw.async {
		return
	}
	s := &fw.node.Summary
	if !s.Blocking {
		s.Blocking = true
		s.BlockingWhy = why
		s.BlockingPos = pos
	}
}

// ---------------------------------------------------------------------------
// Fixed point: blocking, acquires, resources.

// propagate joins callee summaries into n; reports whether n changed.
func (f *Facts) propagate(n *FuncNode) bool {
	changed := false
	s := &n.Summary
	for k, pos := range n.ownAcquires {
		if _, seen := s.Acquires[k]; !seen {
			s.Acquires[k] = &Acquire{Pos: pos}
			changed = true
		}
	}
	for _, cs := range n.Calls {
		if cs.Async {
			continue
		}
		cal := &cs.Callee.Summary
		if cal.Blocking && !s.Blocking {
			s.Blocking = true
			s.BlockingWhy = "calls " + shortKey(cs.Callee.Key)
			s.BlockingPos = cs.Pos
			s.BlockingVia = cs
			changed = true
		}
		for k := range cal.Acquires {
			if _, seen := s.Acquires[k]; !seen {
				s.Acquires[k] = &Acquire{Pos: cs.Pos, Via: cs}
				changed = true
			}
		}
	}
	if f.recomputeResources(n) {
		changed = true
	}
	return changed
}

// recomputeResources recomputes the resource half of the summary
// (fresh-resource returns, closed parameters) against the current
// callee summaries.
func (f *Facts) recomputeResources(n *FuncNode) bool {
	pass := &Pass{Pkg: n.Pkg}
	// Fresh resources: vars assigned from allocator calls.
	fresh := make(map[types.Object]ResourceKind)
	paramObjs := funcParamObjs(pass, n.Decl)
	closes := n.Summary.ClosesParams
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.AssignStmt:
			if len(node.Rhs) == 1 {
				if call, isCall := node.Rhs[0].(*ast.CallExpr); isCall {
					kinds := f.allocates(pass, call)
					for i, kind := range kinds {
						if kind == NoResource || i >= len(node.Lhs) {
							continue
						}
						if id, isIdent := node.Lhs[i].(*ast.Ident); isIdent {
							if obj := pass.ObjectOf(id); obj != nil {
								fresh[obj] = kind
							}
						}
					}
				}
			}
		case *ast.CallExpr:
			// p.Close() / p.Stop() / p.Body.Close() on a parameter.
			if recv, name, ok := methodCall(pass, node); ok && (name == "Close" || name == "Stop") {
				base := recv
				if se, isSel := recv.(*ast.SelectorExpr); isSel && se.Sel.Name == "Body" {
					base = se.X
				}
				if id, isIdent := ast.Unparen(base).(*ast.Ident); isIdent {
					if obj := pass.ObjectOf(id); obj != nil {
						for i, p := range paramObjs {
							if p == obj {
								closes |= 1 << i
							}
						}
					}
				}
			}
			// Parameter handed to a callee that closes it.
			if callee := f.Graph.resolveCallee(pass.Pkg, node); callee != nil && callee.Summary.ClosesParams != 0 {
				for ai, arg := range node.Args {
					if ai >= 64 || callee.Summary.ClosesParams&(1<<ai) == 0 {
						continue
					}
					if id, isIdent := ast.Unparen(arg).(*ast.Ident); isIdent {
						if obj := pass.ObjectOf(id); obj != nil {
							for i, p := range paramObjs {
								if p == obj {
									closes |= 1 << i
								}
							}
						}
					}
				}
			}
		}
		return true
	})
	// Returns that hand a fresh resource to the caller.
	var returns []ResourceKind
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		if _, isLit := node.(*ast.FuncLit); isLit {
			return false
		}
		ret, isRet := node.(*ast.ReturnStmt)
		if !isRet {
			return true
		}
		for i, res := range ret.Results {
			kind := NoResource
			switch e := ast.Unparen(res).(type) {
			case *ast.CallExpr:
				if kinds := f.allocates(pass, e); i < len(ret.Results) && len(kinds) > 0 {
					kind = kinds[0]
				}
			case *ast.Ident:
				if obj := pass.ObjectOf(e); obj != nil {
					kind = fresh[obj]
				}
			}
			if kind != NoResource {
				for len(returns) <= i {
					returns = append(returns, NoResource)
				}
				if returns[i] == NoResource {
					returns[i] = kind
				}
			}
		}
		return true
	})
	changed := closes != n.Summary.ClosesParams || len(returns) != len(n.Summary.Returns)
	if !changed {
		for i := range returns {
			if returns[i] != n.Summary.Returns[i] {
				changed = true
				break
			}
		}
	}
	n.Summary.ClosesParams = closes
	n.Summary.Returns = returns
	return changed
}

// allocates classifies a call's results as fresh resources: one kind
// per result (empty when none).
func (f *Facts) allocates(pass *Pass, call *ast.CallExpr) []ResourceKind {
	if callee := f.Graph.resolveCallee(pass.Pkg, call); callee != nil {
		return callee.Summary.Returns
	}
	if full := calleeFullName(pass, call); full != "" {
		if kind, ok := allocatorStd[full]; ok {
			return []ResourceKind{kind}
		}
	}
	return nil
}

// funcParamObjs returns the parameter objects of fd in order.
func funcParamObjs(pass *Pass, fd *ast.FuncDecl) []types.Object {
	var out []types.Object
	if fd.Type.Params == nil {
		return nil
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			out = append(out, pass.ObjectOf(name))
		}
		if len(field.Names) == 0 {
			out = append(out, nil) // unnamed param still occupies an index
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Taint.

// taintMark is the abstract value of the taint analysis: a
// nondeterministic-source component with provenance, plus a bitmask
// of originating parameters.
type taintMark struct {
	src    bool
	why    string
	pos    token.Pos
	via    *CallSite
	params uint64
}

func (m taintMark) union(o taintMark) taintMark {
	if o.src && !m.src {
		m.src, m.why, m.pos, m.via = true, o.why, o.pos, o.via
	}
	m.params |= o.params
	return m
}

func (m taintMark) empty() bool { return !m.src && m.params == 0 }

// recomputeTaint runs the intra-procedural taint fixed point for n
// against current callee summaries; reports whether n's summary
// changed.
func (f *Facts) recomputeTaint(n *FuncNode) bool {
	pass := &Pass{Pkg: n.Pkg}
	env := make(map[types.Object]taintMark)
	// Parameters seed their own origin bit.
	for i, p := range funcParamObjs(pass, n.Decl) {
		if p != nil && i < 64 {
			env[p] = taintMark{params: 1 << i}
		}
	}
	// Map-iteration-order taint: ordered sinks of a range-over-map
	// with no later sort are nondeterministically ordered.
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		rs, isRange := node.(*ast.RangeStmt)
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
		for _, sink := range orderedSinks(pass, n.File, rs) {
			if sink.obj == nil || sortedAfter(pass, n.Decl.Body, rs, sink.obj) {
				continue
			}
			env[sink.obj] = env[sink.obj].union(taintMark{
				src: true, why: "map iteration order", pos: sink.pos,
			})
		}
		return true
	})
	tc := &taintCtx{facts: f, node: n, pass: pass, env: env}
	for round := 0; round < 16; round++ {
		if !tc.flowOnce(n.Decl.Body) {
			break
		}
	}
	// Join return statements into the summary.
	sum := &n.Summary
	changed := false
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		if _, isLit := node.(*ast.FuncLit); isLit {
			return false
		}
		ret, isRet := node.(*ast.ReturnStmt)
		if !isRet {
			return true
		}
		for _, res := range ret.Results {
			m := tc.mark(res)
			if m.src && !sum.TaintedReturn {
				sum.TaintedReturn = true
				sum.TaintWhy, sum.TaintPos, sum.TaintVia = m.why, m.pos, m.via
				changed = true
			}
			if m.params&^sum.ParamToReturn != 0 {
				sum.ParamToReturn |= m.params
				changed = true
			}
		}
		return true
	})
	n.taintedVars = env
	return changed
}

// taintCtx evaluates expression marks against an environment.
type taintCtx struct {
	facts *Facts
	node  *FuncNode
	pass  *Pass
	env   map[types.Object]taintMark
}

// flowOnce pushes marks through every assignment once; reports
// whether the environment grew.
func (tc *taintCtx) flowOnce(body *ast.BlockStmt) bool {
	changed := false
	join := func(lhs ast.Expr, m taintMark) {
		if m.empty() {
			return
		}
		base := lhs
		for {
			switch e := ast.Unparen(base).(type) {
			case *ast.SelectorExpr:
				base = e.X
				continue
			case *ast.IndexExpr:
				base = e.X
				continue
			case *ast.StarExpr:
				base = e.X
				continue
			}
			break
		}
		id, isIdent := ast.Unparen(base).(*ast.Ident)
		if !isIdent || id.Name == "_" {
			return
		}
		obj := tc.pass.ObjectOf(id)
		if obj == nil {
			return
		}
		joined := tc.env[obj].union(m)
		if joined != tc.env[obj] {
			tc.env[obj] = joined
			changed = true
		}
	}
	ast.Inspect(body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.AssignStmt:
			if len(node.Rhs) == 1 && len(node.Lhs) > 1 {
				m := tc.mark(node.Rhs[0])
				for _, lhs := range node.Lhs {
					join(lhs, m)
				}
				return true
			}
			for i, rhs := range node.Rhs {
				if i < len(node.Lhs) {
					join(node.Lhs[i], tc.mark(rhs))
				}
			}
		case *ast.RangeStmt:
			m := tc.mark(node.X)
			if node.Key != nil {
				join(node.Key, m)
			}
			if node.Value != nil {
				join(node.Value, m)
			}
		}
		return true
	})
	return changed
}

// mark computes the taint of one expression.
func (tc *taintCtx) mark(e ast.Expr) taintMark {
	switch e := e.(type) {
	case nil:
		return taintMark{}
	case *ast.Ident:
		if obj := tc.pass.ObjectOf(e); obj != nil {
			return tc.env[obj]
		}
		return taintMark{}
	case *ast.ParenExpr:
		return tc.mark(e.X)
	case *ast.SelectorExpr:
		return tc.mark(e.X) // field of a tainted struct is tainted
	case *ast.StarExpr:
		return tc.mark(e.X)
	case *ast.UnaryExpr:
		return tc.mark(e.X)
	case *ast.BinaryExpr:
		return tc.mark(e.X).union(tc.mark(e.Y))
	case *ast.IndexExpr:
		return tc.mark(e.X).union(tc.mark(e.Index))
	case *ast.SliceExpr:
		return tc.mark(e.X)
	case *ast.TypeAssertExpr:
		return tc.mark(e.X)
	case *ast.KeyValueExpr:
		return tc.mark(e.Value)
	case *ast.CompositeLit:
		var m taintMark
		for _, el := range e.Elts {
			m = m.union(tc.mark(el))
		}
		return m
	case *ast.CallExpr:
		return tc.callMark(e)
	case *ast.FuncLit, *ast.BasicLit:
		return taintMark{}
	}
	return taintMark{}
}

func (tc *taintCtx) callMark(call *ast.CallExpr) taintMark {
	// Type conversion: the mark of the operand.
	if tc.pass.Pkg.Info != nil {
		if tv, ok := tc.pass.Pkg.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
			return tc.mark(call.Args[0])
		}
	}
	// Builtins.
	if id, isIdent := ast.Unparen(call.Fun).(*ast.Ident); isIdent {
		switch id.Name {
		case "append", "copy", "min", "max":
			var m taintMark
			for _, a := range call.Args {
				m = m.union(tc.mark(a))
			}
			return m
		case "len", "cap", "make", "new":
			return taintMark{}
		}
	}
	// Intrinsic nondeterminism source.
	if why, isSrc := nondetSource(tc.pass, tc.node.File, call); isSrc {
		return taintMark{src: true, why: why, pos: call.Pos()}
	}
	// Resolved module-local callee: use its summary.
	if callee := tc.facts.Graph.resolveCallee(tc.pass.Pkg, call); callee != nil {
		cs := &CallSite{Caller: tc.node, Callee: callee, Pos: call.Pos(), Call: call}
		var m taintMark
		if callee.Summary.TaintedReturn {
			m = m.union(taintMark{src: true, why: "calls " + shortKey(callee.Key), pos: call.Pos(), via: cs})
		}
		for i, arg := range call.Args {
			if i < 64 && callee.Summary.ParamToReturn&(1<<i) != 0 {
				am := tc.mark(arg)
				if am.src {
					m = m.union(am)
				}
				m.params |= am.params
			}
		}
		return m
	}
	// External call: assume results depend on the arguments
	// (fmt.Sprintf, strconv, strings.Join, hash writers...).
	var m taintMark
	for _, a := range call.Args {
		m = m.union(tc.mark(a))
	}
	if se, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr); isSel {
		// Method call: the receiver contributes too (h.Sum(nil)).
		m = m.union(tc.mark(se.X))
	}
	return m
}

// ---------------------------------------------------------------------------
// Global lock-order edges.

// collectLockEdges merges intra-procedural edges with the
// interprocedural ones (call made while holding A, callee acquires
// B), keeping the first witness per (from, to) pair in deterministic
// node order.
func (f *Facts) collectLockEdges() {
	add := func(e lockEdge) {
		k := [2]string{e.from, e.to}
		if _, seen := f.edgeIndex[k]; seen {
			return
		}
		ecopy := e
		f.edgeIndex[k] = &ecopy
		f.lockEdges = append(f.lockEdges, ecopy)
	}
	for _, n := range f.Graph.Nodes {
		if !f.Cfg.LockOrdered(n.Pkg) {
			continue
		}
		for _, e := range n.lockEdges {
			add(e)
		}
		for _, cs := range n.Calls {
			if cs.Async || len(cs.Held) == 0 {
				continue
			}
			for to := range cs.Callee.Summary.Acquires {
				for _, from := range cs.Held {
					if from != to {
						add(lockEdge{from: from, to: to, pos: cs.Pos, node: n, via: cs})
					}
				}
			}
		}
	}
}

// LockEdges returns the global acquisition-order edge set (first
// witness per ordered pair), deterministic.
func (f *Facts) LockEdges() []lockEdge { return f.lockEdges }

// ---------------------------------------------------------------------------
// Provenance chains.

// shortKey strips the module path prefix for readable messages:
// "(*repro/internal/engine.Engine).Submit" -> "(*engine.Engine).Submit".
func shortKey(k FuncKey) string {
	s := string(k)
	s = strings.ReplaceAll(s, "repro/internal/", "")
	s = strings.ReplaceAll(s, "repro/", "")
	return s
}

func (f *Facts) frame(pos token.Pos, fn FuncKey, note string) ChainFrame {
	p := f.Fset.Position(pos)
	return ChainFrame{Func: shortKey(fn), File: p.Filename, Line: p.Line, Note: note}
}

// BlockingChain explains why n blocks: the call-site frames down to
// the intrinsic blocking operation.
func (f *Facts) BlockingChain(n *FuncNode) []ChainFrame {
	var chain []ChainFrame
	seen := make(map[*FuncNode]bool)
	for n != nil && !seen[n] {
		seen[n] = true
		s := n.Summary
		if s.BlockingVia == nil {
			chain = append(chain, f.frame(s.BlockingPos, n.Key, s.BlockingWhy))
			break
		}
		chain = append(chain, f.frame(s.BlockingPos, n.Key, "calls "+shortKey(s.BlockingVia.Callee.Key)))
		n = s.BlockingVia.Callee
	}
	return chain
}

// AcquireChain explains how n comes to acquire lock class key.
func (f *Facts) AcquireChain(n *FuncNode, key string) []ChainFrame {
	var chain []ChainFrame
	seen := make(map[*FuncNode]bool)
	for n != nil && !seen[n] {
		seen[n] = true
		acq := n.Summary.Acquires[key]
		if acq == nil {
			break
		}
		if acq.Via == nil {
			chain = append(chain, f.frame(acq.Pos, n.Key, "acquires "+shortLock(key)))
			break
		}
		chain = append(chain, f.frame(acq.Pos, n.Key, "calls "+shortKey(acq.Via.Callee.Key)))
		n = acq.Via.Callee
	}
	return chain
}

// TaintChain explains why n's return value is nondeterministic.
func (f *Facts) TaintChain(n *FuncNode) []ChainFrame {
	var chain []ChainFrame
	seen := make(map[*FuncNode]bool)
	for n != nil && !seen[n] {
		seen[n] = true
		s := n.Summary
		if s.TaintVia == nil {
			chain = append(chain, f.frame(s.TaintPos, n.Key, s.TaintWhy))
			break
		}
		chain = append(chain, f.frame(s.TaintPos, n.Key, "calls "+shortKey(s.TaintVia.Callee.Key)))
		n = s.TaintVia.Callee
	}
	return chain
}

// markChain renders the provenance of one taint mark computed inside
// owner.
func (f *Facts) markChain(owner *FuncNode, m taintMark) []ChainFrame {
	if !m.src {
		return nil
	}
	if m.via == nil {
		return []ChainFrame{f.frame(m.pos, owner.Key, m.why)}
	}
	chain := []ChainFrame{f.frame(m.pos, owner.Key, "calls "+shortKey(m.via.Callee.Key))}
	return append(chain, f.TaintChain(m.via.Callee)...)
}

// shortLock trims lock-class names for messages.
func shortLock(key string) string {
	return strings.ReplaceAll(key, "repro/internal/", "")
}

// ---------------------------------------------------------------------------
// Facts dump (pdflint -facts).

// Dump writes every function summary in deterministic order — the
// debugging view behind `pdflint -facts`.
func (f *Facts) Dump(w io.Writer, root string) {
	for _, n := range f.Graph.Nodes {
		s := n.Summary
		interesting := s.Blocking || len(s.Acquires) > 0 || s.TaintedReturn ||
			len(s.CtxParams) > 0 || s.ClosesParams != 0 || len(s.Returns) > 0
		if !interesting {
			continue
		}
		pos := f.Fset.Position(n.Decl.Pos())
		fmt.Fprintf(w, "%s\n  at %s:%d\n", shortKey(n.Key), relPath(root, pos.Filename), pos.Line)
		if s.Blocking {
			fmt.Fprintf(w, "  blocking: %s\n", s.BlockingWhy)
		}
		if len(s.Acquires) > 0 {
			keys := make([]string, 0, len(s.Acquires))
			for k := range s.Acquires {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for i := range keys {
				keys[i] = shortLock(keys[i])
			}
			fmt.Fprintf(w, "  acquires: %s\n", strings.Join(keys, ", "))
		}
		if len(s.CtxParams) > 0 {
			fmt.Fprintf(w, "  ctx params: %v\n", s.CtxParams)
		}
		if s.TaintedReturn {
			fmt.Fprintf(w, "  tainted return: %s\n", s.TaintWhy)
		}
		if s.ParamToReturn != 0 {
			fmt.Fprintf(w, "  param->return mask: %#x\n", s.ParamToReturn)
		}
		for i, kind := range s.Returns {
			if kind != NoResource {
				fmt.Fprintf(w, "  returns fresh %s (result %d)\n", kind, i)
			}
		}
		if s.ClosesParams != 0 {
			fmt.Fprintf(w, "  closes params mask: %#x\n", s.ClosesParams)
		}
	}
}

// ConcurrentPackages returns the import paths of loaded packages that
// bear concurrency — a go statement, channel operation, select, or a
// sync.Mutex/RWMutex/WaitGroup use — derived from the parsed syntax.
// `make race` uses this (via pdflint -concurrent) so new concurrent
// packages cannot silently skip the race detector.
func ConcurrentPackages(pkgs []*Package) []string {
	var out []string
	for _, pkg := range pkgs {
		if strings.Contains(pkg.PkgPath, "/testdata/") {
			continue
		}
		found := false
		for _, file := range pkg.Files {
			if found {
				break
			}
			ast.Inspect(file, func(n ast.Node) bool {
				if found {
					return false
				}
				switch n := n.(type) {
				case *ast.GoStmt, *ast.SendStmt, *ast.SelectStmt, *ast.ChanType:
					found = true
				case *ast.UnaryExpr:
					if n.Op == token.ARROW {
						found = true
					}
				case *ast.SelectorExpr:
					if id, isIdent := n.X.(*ast.Ident); isIdent && id.Name == "sync" {
						switch n.Sel.Name {
						case "Mutex", "RWMutex", "WaitGroup", "Cond", "Once", "Map":
							found = true
						}
					}
				}
				return !found
			})
		}
		if found {
			out = append(out, pkg.PkgPath)
		}
	}
	sort.Strings(out)
	return out
}
