package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"
)

// metricNameRE is the Prometheus text-format metric name grammar.
var metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// labelNameRE is the Prometheus label name grammar.
var labelNameRE = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)

// obsConstructors maps the internal/obs registration entry points to
// the index of their metric-name argument.
var obsConstructors = map[string]int{
	"NewCounterVec":   0,
	"NewCounterFunc":  0,
	"NewGaugeFunc":    0,
	"NewGaugeVecFunc": 0,
	"NewHistogram":    0,
	"NewHistogramVec": 0,
}

// AnalyzerMetricName checks every internal/obs metric registration
// site: the metric name must be a constant-foldable string (basic
// literal, const, or concatenation of those — the registry's /metrics
// exposition never re-validates at scrape time) matching the
// Prometheus text-format grammar, and vector label names must match
// the label grammar. A malformed name silently corrupts the whole
// exposition for every scraper.
var AnalyzerMetricName = &Analyzer{
	Name: "metricname",
	Doc:  "non-constant or grammar-violating Prometheus metric/label name at an obs registration site",
	Run:  runMetricName,
}

func runMetricName(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, isCall := n.(*ast.CallExpr)
			if !isCall {
				return true
			}
			name, ok := obsConstructorCall(pass, file, call)
			if !ok {
				return true
			}
			argIdx := obsConstructors[name]
			if len(call.Args) <= argIdx {
				return true
			}
			arg := call.Args[argIdx]
			metric, isConst := constString(pass, arg)
			if !isConst {
				pass.Reportf(arg.Pos(),
					"obs.%s metric name must be a constant-foldable string (the registry never re-validates at scrape time)", name)
			} else if !metricNameRE.MatchString(metric) {
				pass.Reportf(arg.Pos(),
					"metric name %q does not match the Prometheus grammar [a-zA-Z_:][a-zA-Z0-9_:]*", metric)
			}
			checkLabelArgs(pass, name, call)
			return true
		})
	}
}

// obsConstructorCall matches both obs.NewCounterVec(...) from other
// packages and plain NewCounterVec(...) inside internal/obs itself.
func obsConstructorCall(pass *Pass, file *ast.File, call *ast.CallExpr) (string, bool) {
	if pkgPath, name, ok := pkgFuncCall(pass, file, call); ok {
		if _, known := obsConstructors[name]; known && pkgPath == pass.Config.ObsPkg {
			return name, true
		}
		return "", false
	}
	if pass.Pkg.PkgPath != pass.Config.ObsPkg {
		return "", false
	}
	id, isIdent := call.Fun.(*ast.Ident)
	if !isIdent {
		return "", false
	}
	if _, known := obsConstructors[id.Name]; known {
		return id.Name, true
	}
	return "", false
}

// checkLabelArgs validates the variadic label names of the *Vec
// constructors.
func checkLabelArgs(pass *Pass, ctor string, call *ast.CallExpr) {
	var labelStart int
	switch ctor {
	case "NewCounterVec":
		labelStart = 2 // (name, help, labels...)
	case "NewHistogramVec", "NewGaugeVecFunc":
		labelStart = 3 // (name, help, buckets or read, labels...)
	default:
		return
	}
	for i := labelStart; i < len(call.Args); i++ {
		label, isConst := constString(pass, call.Args[i])
		if !isConst {
			pass.Reportf(call.Args[i].Pos(), "obs.%s label name must be a constant-foldable string", ctor)
			continue
		}
		if !labelNameRE.MatchString(label) {
			pass.Reportf(call.Args[i].Pos(),
				"label name %q does not match the Prometheus grammar [a-zA-Z_][a-zA-Z0-9_]*", label)
		}
	}
}

// constString returns the constant-folded string value of expr, if
// the type checker could fold it.
func constString(pass *Pass, expr ast.Expr) (string, bool) {
	if pass.Pkg.Info == nil {
		return "", false
	}
	tv, found := pass.Pkg.Info.Types[expr]
	if !found || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// AnalyzerSpanEnd checks that every span returned by obs.StartSpan
// (or StartSpanAt) is ended in the function that started it — via
// defer or on every exit path the function owns. A span stored into a
// struct field is
// excluded (the engine's job root/queued spans end in other methods);
// a span assigned to the blank identifier or a dropped return value
// can never end and is always a finding. Unended spans hold their
// slot in the per-trace cap forever and report zero duration in
// /v1/jobs/{id}/trace.
var AnalyzerSpanEnd = &Analyzer{
	Name: "spanend",
	Doc:  "obs.StartSpan whose span is discarded or never .End()ed in the starting function",
	Run:  runSpanEnd,
}

func runSpanEnd(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		funcBodies(file, func(name string, body *ast.BlockStmt) {
			runSpanEndFunc(pass, file, body)
		})
	}
}

func runSpanEndFunc(pass *Pass, file *ast.File, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit && n.Pos() != body.Pos() {
			return false // analyzed as its own frame
		}
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, isCall := n.X.(*ast.CallExpr); isCall && isStartSpan(pass, file, call) {
				pass.Reportf(call.Pos(), "StartSpan result discarded: the span can never End")
			}
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				call, isCall := rhs.(*ast.CallExpr)
				if !isCall || !isStartSpan(pass, file, call) {
					continue
				}
				if len(n.Rhs) != 1 || len(n.Lhs) != 2 {
					continue
				}
				checkSpanLHS(pass, body, n.Lhs[1], call)
			}
		}
		return true
	})
}

func checkSpanLHS(pass *Pass, body *ast.BlockStmt, lhs ast.Expr, call *ast.CallExpr) {
	switch lhs := lhs.(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			pass.Reportf(call.Pos(), "span assigned to _: it can never End")
			return
		}
		obj := pass.ObjectOf(lhs)
		if obj == nil {
			return
		}
		if _, isField := obj.(*types.Var); isField && obj.Parent() == nil {
			return // struct field via composite literal — out of scope
		}
		if !spanEnded(pass, body, obj) {
			pass.Reportf(call.Pos(),
				"span %s is never .End()ed in this function (use defer %s.End() or end it on every path)",
				lhs.Name, lhs.Name)
		}
	case *ast.SelectorExpr:
		// Stored into a field: lifetime escapes this function; the
		// trace-nesting tests cover those spans end-to-end.
	}
}

// spanEnded reports whether obj has a .End(...) call anywhere in the
// function body (direct, deferred, or inside a nested literal — a
// deferred closure ending the span counts).
func spanEnded(pass *Pass, body *ast.BlockStmt, obj types.Object) bool {
	ended := false
	ast.Inspect(body, func(n ast.Node) bool {
		if ended {
			return false
		}
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return true
		}
		se, isSel := call.Fun.(*ast.SelectorExpr)
		if !isSel || se.Sel.Name != "End" {
			return true
		}
		if id, isIdent := se.X.(*ast.Ident); isIdent && pass.ObjectOf(id) == obj {
			ended = true
			return false
		}
		return true
	})
	return ended
}

func isStartSpan(pass *Pass, file *ast.File, call *ast.CallExpr) bool {
	pkgPath, name, ok := pkgFuncCall(pass, file, call)
	if ok {
		return (name == "StartSpan" || name == "StartSpanAt") && pkgPath == pass.Config.ObsPkg
	}
	return false
}

// AnalyzerErrEnvelope forbids http.Error in the engine package: every
// error response must go through the unified {"error":{code,...}}
// envelope helper so clients always get a machine-readable code and
// Retry-After semantics. http.Error writes text/plain with none of
// that, silently breaking every client that switches on the code.
var AnalyzerErrEnvelope = &Analyzer{
	Name: "errenvelope",
	Doc:  "http.Error in an engine HTTP handler instead of the unified error envelope",
	Run:  runErrEnvelope,
}

func runErrEnvelope(pass *Pass) {
	if !pass.Config.Engine(pass.Pkg) {
		return
	}
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, isCall := n.(*ast.CallExpr)
			if !isCall {
				return true
			}
			pkgPath, name, ok := pkgFuncCall(pass, file, call)
			if ok && pkgPath == "net/http" && name == "Error" {
				pass.Reportf(call.Pos(),
					"http.Error bypasses the /v1 error envelope: use engine.WriteError (code + message + retry_after_ms) instead")
			}
			return true
		})
	}
}
