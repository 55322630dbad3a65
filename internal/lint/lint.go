// Package lint is pdflint's hand-rolled static-analysis framework: a
// stdlib-only driver (go/parser + go/ast + go/types, no x/tools) that
// loads every package of the module and runs project-specific
// analyzers over the type-checked ASTs.
//
// The checks encode invariants the rest of the repository depends on
// but the compiler cannot see:
//
//   - determinism: everything between a job's spec and its result
//     (internal/circuit, synth, experiments, pathenum, robust, faults,
//     core, justify, tval, bitsim, faultsim) must be bit-identical: the
//     result cache serves it by (circuit, spec) alone, before prepare,
//     and journal replay and perfbench compare it. No unseeded
//     math/rand, no time.Now outside telemetry-annotated call sites,
//     no map iteration feeding an ordered result without a sort.
//   - lock discipline: no channel operation or blocking call while a
//     sync.Mutex/RWMutex is held, and no Lock without a reachable
//     Unlock in the same function.
//   - goroutine hygiene: long-lived packages may only spawn
//     goroutines that are cancelable (take or capture a
//     context.Context) or tracked (WaitGroup).
//   - obs hygiene: metric names constant-foldable and well-formed at
//     registration sites, every StartSpan ended, engine handlers
//     answering errors through the unified envelope only.
//
// False positives are suppressed in place with
//
//	//lint:ignore <analyzer> <reason>
//
// on the offending line or the line above; the reason is recorded in
// the run result (and listed by pdflint -v) so suppressions stay
// auditable.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Package is one loaded, parsed and type-checked package.
type Package struct {
	// PkgPath is the import path ("repro/internal/core").
	PkgPath string
	// Dir is the directory the files were read from.
	Dir string
	// Fset positions every file of the load (shared across packages).
	Fset *token.FileSet
	// Files are the parsed non-test Go files, sorted by file name.
	Files []*ast.File
	// Types is the type-checked package object (never nil, but
	// possibly incomplete if TypeErrors is non-empty).
	Types *types.Package
	// Info carries expression types, constant values, and uses/defs.
	Info *types.Info
	// TypeErrors are the (tolerated) type-checking errors; analysis
	// proceeds on partial information.
	TypeErrors []error

	imports []string // module-local imports, for topological loading
}

// ChainFrame is one step of a diagnostic's provenance: the function a
// propagated fact passed through and why. Interprocedural analyzers
// attach the full call chain that produced a finding; the text report
// prints it under the finding.
type ChainFrame struct {
	// Func is the function key in short form ("(*engine.Engine).Submit").
	Func string
	// File/Line position the relevant call or operation.
	File string
	Line int
	// Note says what the frame contributes ("calls journal.Append",
	// "time.Sleep", "acquires engine.Engine.mu").
	Note string
}

// Diagnostic is one finding, positioned at file:line:col.
type Diagnostic struct {
	File     string
	Line     int
	Col      int
	Analyzer string
	Message  string
	// Chain is the interprocedural provenance, outermost frame first.
	// Empty for the intra-procedural analyzers.
	Chain []ChainFrame
}

// String is the one line format of a finding:
// file:line:col: [analyzer] message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Suppression records a diagnostic that a //lint:ignore directive
// silenced, together with the contributor-supplied reason.
type Suppression struct {
	File     string
	Line     int
	Analyzer string
	Reason   string
	Message  string
}

// Analyzer is one named check. Exactly one of Run and RunModule is
// set: Run sees one package at a time, RunModule sees the whole
// module through the facts engine.
type Analyzer struct {
	// Name is the flag / directive name ("maporder").
	Name string
	// Doc is the one-line description printed by pdflint -list.
	Doc string
	// Run inspects pass.Pkg and reports findings via pass.Reportf.
	Run func(pass *Pass)
	// RunModule inspects the whole module's facts (locks, which reads
	// the facts walk's held-lock records, and the interprocedural
	// analyzers: lockorder, ctxflow, nondetflow, closeleak).
	RunModule func(mp *ModulePass)
}

// Pass is one (analyzer, package) execution.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Config   *Config

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	p.diags = append(p.diags, Diagnostic{
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ModulePass is one module-wide analyzer execution over the computed
// facts.
type ModulePass struct {
	Analyzer *Analyzer
	Facts    *Facts
	Config   *Config

	diags []Diagnostic
}

// Report records a diagnostic at pos with its provenance chain
// (outermost frame first; nil for chain-less findings).
func (mp *ModulePass) Report(pos token.Pos, chain []ChainFrame, format string, args ...any) {
	position := mp.Facts.Fset.Position(pos)
	mp.diags = append(mp.diags, Diagnostic{
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: mp.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
		Chain:    chain,
	})
}

// TypeOf returns the type of expr, or nil when type checking could
// not resolve it (analyzers degrade gracefully on partial info).
func (p *Pass) TypeOf(expr ast.Expr) types.Type {
	if p.Pkg.Info == nil {
		return nil
	}
	return p.Pkg.Info.TypeOf(expr)
}

// ObjectOf returns the object an identifier denotes, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if p.Pkg.Info == nil {
		return nil
	}
	if o := p.Pkg.Info.ObjectOf(id); o != nil {
		return o
	}
	return nil
}

// Config scopes the analyzers to the packages whose invariants they
// encode. Paths are import-path prefixes; DefaultConfig returns the
// project values and tests point them at fixture packages instead.
type Config struct {
	// DeterministicPkgs are the bit-identical generation packages the
	// rand / timenow / maporder analyzers police.
	DeterministicPkgs []string
	// LongLivedPkgs are the daemon-lifetime packages whose goroutines
	// must be cancelable or tracked (gofunc analyzer).
	LongLivedPkgs []string
	// EnginePkgs are the packages whose HTTP handlers must answer
	// errors through the unified envelope (errenvelope analyzer).
	EnginePkgs []string
	// DurablePkgs are the packages whose on-disk writes must survive a
	// crash: every os.Rename there needs a following parent-directory
	// fsync (fsyncdir analyzer).
	DurablePkgs []string
	// ClusterPkgs are the fleet-routing packages whose outbound HTTP
	// requests must carry trace propagation headers: http.NewRequest*
	// there may only appear inside the header-injecting helper
	// (tracepropagation analyzer).
	ClusterPkgs []string
	// ObsPkg is the import path of the observability package whose
	// metric constructors and StartSpan the obs analyzers recognize.
	ObsPkg string
	// LockOrderPkgs are the packages whose lock acquisitions feed the
	// global acquisition-order graph (lockorder analyzer).
	LockOrderPkgs []string
	// ResourcePkgs are the packages under close-on-all-paths
	// discipline for response bodies, files and tickers (closeleak
	// analyzer).
	ResourcePkgs []string
	// NondetSinks maps a determinism sink — a callee in go/types
	// FullName form ("repro/internal/engine.SpecDigest",
	// "(*repro/internal/store.Store).Put") — to the argument indices
	// that must stay deterministic. nil/empty indices mean every
	// argument (nondetflow analyzer).
	NondetSinks map[string][]int
}

// DefaultConfig returns the project scoping (see package comment).
func DefaultConfig() *Config {
	return &Config{
		DeterministicPkgs: []string{
			// Everything between a job's spec and its result.
			"repro/internal/circuit", "repro/internal/synth", "repro/internal/experiments",
			"repro/internal/pathenum", "repro/internal/robust", "repro/internal/faults",
			"repro/internal/core", "repro/internal/justify", "repro/internal/tval",
			"repro/internal/bitsim", "repro/internal/faultsim",
		},
		LongLivedPkgs: []string{
			"repro/internal/cluster",
			"repro/internal/engine",
			"repro/internal/events",
			"repro/internal/journal",
			"repro/internal/obs",
		},
		EnginePkgs: []string{
			"repro/internal/cluster",
			"repro/internal/engine",
		},
		DurablePkgs: []string{
			"repro/internal/durable",
			"repro/internal/journal",
			"repro/internal/store",
		},
		ClusterPkgs: []string{
			"repro/internal/cluster",
		},
		ObsPkg: "repro/internal/obs",
		LockOrderPkgs: []string{
			"repro/internal/engine",
			"repro/internal/cluster",
			"repro/internal/store",
			"repro/internal/journal",
		},
		ResourcePkgs: []string{
			"repro/internal",
			"repro/cmd",
		},
		NondetSinks: map[string][]int{
			// Digests key the result cache, journal replay equivalence
			// and the perfreg baseline: every argument must be
			// deterministic.
			"repro/internal/engine.SpecDigest":    nil,
			"repro/internal/engine.CircuitDigest": nil,
			// Store and journal records replicate across the fleet;
			// their keys must be derivable, not wall-clock or rand.
			"(*repro/internal/store.Store).Put":    {0},
			"(*repro/internal/store.Store).Get":    {0},
			"(*repro/internal/journal.Log).Append": nil,
		},
	}
}

func matchesAny(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// Deterministic reports whether pkg is under determinism discipline.
func (c *Config) Deterministic(pkg *Package) bool {
	return matchesAny(pkg.PkgPath, c.DeterministicPkgs)
}

// LongLived reports whether pkg must keep its goroutines cancelable.
func (c *Config) LongLived(pkg *Package) bool {
	return matchesAny(pkg.PkgPath, c.LongLivedPkgs)
}

// Engine reports whether pkg serves the /v1 error envelope.
func (c *Config) Engine(pkg *Package) bool {
	return matchesAny(pkg.PkgPath, c.EnginePkgs)
}

// Durable reports whether pkg is under crash-durability discipline.
func (c *Config) Durable(pkg *Package) bool {
	return matchesAny(pkg.PkgPath, c.DurablePkgs)
}

// Cluster reports whether pkg must route outbound requests through the
// trace-header-injecting helper.
func (c *Config) Cluster(pkg *Package) bool {
	return matchesAny(pkg.PkgPath, c.ClusterPkgs)
}

// LockOrdered reports whether pkg's lock acquisitions participate in
// the global acquisition-order graph.
func (c *Config) LockOrdered(pkg *Package) bool {
	return matchesAny(pkg.PkgPath, c.LockOrderPkgs)
}

// Resourceful reports whether pkg is under close-on-all-paths
// discipline.
func (c *Config) Resourceful(pkg *Package) bool {
	return matchesAny(pkg.PkgPath, c.ResourcePkgs)
}

// Analyzers returns every analyzer in stable (presentation) order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AnalyzerRand,
		AnalyzerTimeNow,
		AnalyzerMapOrder,
		AnalyzerLocks,
		AnalyzerGoFunc,
		AnalyzerMetricName,
		AnalyzerSpanEnd,
		AnalyzerErrEnvelope,
		AnalyzerFsyncDir,
		AnalyzerTracePropagation,
		AnalyzerLockOrder,
		AnalyzerCtxFlow,
		AnalyzerNondetFlow,
		AnalyzerCloseLeak,
		AnalyzerTestOnly,
	}
}

// Result is one full run: surviving diagnostics (sorted by position)
// plus the suppressions that //lint:ignore directives recorded.
type Result struct {
	Diags      []Diagnostic
	Suppressed []Suppression
}

// Run executes the analyzers over the packages, applies //lint:ignore
// suppressions, and returns the sorted result. Per-package analyzers
// run first; when any module-wide analyzer is selected the facts
// engine runs once and every module analyzer shares its call graph
// and summaries.
func Run(pkgs []*Package, analyzers []*Analyzer, cfg *Config) *Result {
	if cfg == nil {
		cfg = DefaultConfig()
	}
	res := &Result{}
	// Ignore directives are collected module-wide up front: module
	// analyzers position findings in any file, so matching must not
	// depend on which package loop we are in. File names are unique
	// across packages, so merging is safe.
	all := &ignoreSet{byFileLine: make(map[string]map[int]*ignoreDirective)}
	for _, pkg := range pkgs {
		for file, lines := range collectIgnores(pkg).byFileLine {
			all.byFileLine[file] = lines
		}
	}
	sift := func(diags []Diagnostic) {
		for _, d := range diags {
			if reason, ok := all.match(d); ok {
				res.Suppressed = append(res.Suppressed, Suppression{
					File: d.File, Line: d.Line, Analyzer: d.Analyzer,
					Reason: reason, Message: d.Message,
				})
				continue
			}
			res.Diags = append(res.Diags, d)
		}
	}
	var modAnalyzers []*Analyzer
	for _, a := range analyzers {
		if a.RunModule != nil {
			modAnalyzers = append(modAnalyzers, a)
			continue
		}
		for _, pkg := range pkgs {
			pass := &Pass{Analyzer: a, Pkg: pkg, Config: cfg}
			a.Run(pass)
			sift(pass.diags)
		}
	}
	if len(modAnalyzers) > 0 {
		facts := BuildFacts(pkgs, cfg)
		for _, a := range modAnalyzers {
			mp := &ModulePass{Analyzer: a, Facts: facts, Config: cfg}
			a.RunModule(mp)
			sift(mp.diags)
		}
	}
	sortDiags(res.Diags)
	sort.Slice(res.Suppressed, func(i, j int) bool {
		a, b := res.Suppressed[i], res.Suppressed[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return res
}

func sortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
