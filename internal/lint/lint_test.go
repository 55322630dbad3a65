package lint_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint"
)

// fixtureNames lists the fixture packages under testdata/src, one per
// analyzer.
var fixtureNames = []string{
	"rand", "timenow", "maporder", "locks",
	"gofunc", "metricname", "spanend", "errenvelope",
	"coordenvelope", "fsyncdir", "tracepropagation",
	"lockorder", "ctxflow", "ctxflow/dep",
	"nondetflow", "nondetflow/dep", "closeleak",
	"testonly", "testonly/dep",
}

const fixturePathPrefix = "repro/internal/lint/testdata/src/"

var fixtureCache struct {
	once sync.Once
	pkgs []*lint.Package
	err  error
}

// loadFixtures loads internal/obs (the fixtures' only module-local
// dependency) plus every fixture package, and returns the fixture
// packages with a config that scopes each analyzer onto them. The
// load is cached across tests: packages are read-only after loading.
func loadFixtures(t *testing.T) ([]*lint.Package, *lint.Config) {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	fixtureCache.once.Do(func() {
		var extra []string
		for _, name := range fixtureNames {
			extra = append(extra, filepath.Join(root, "internal/lint/testdata/src", name))
		}
		fixtureCache.pkgs, fixtureCache.err = lint.LoadModule(root, &lint.LoadOptions{
			Only:      []string{"internal/obs"},
			ExtraDirs: extra,
		})
	})
	pkgs, err := fixtureCache.pkgs, fixtureCache.err
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	var fixtures []*lint.Package
	for _, p := range pkgs {
		if strings.HasPrefix(p.PkgPath, fixturePathPrefix) {
			if len(p.TypeErrors) > 0 {
				t.Fatalf("fixture %s has type errors: %v", p.PkgPath, p.TypeErrors)
			}
			fixtures = append(fixtures, p)
		}
	}
	if len(fixtures) != len(fixtureNames) {
		t.Fatalf("loaded %d fixture packages, want %d", len(fixtures), len(fixtureNames))
	}
	cfg := &lint.Config{
		DeterministicPkgs: []string{
			fixturePathPrefix + "rand",
			fixturePathPrefix + "timenow",
			fixturePathPrefix + "maporder",
		},
		LongLivedPkgs: []string{
			fixturePathPrefix + "gofunc",
			fixturePathPrefix + "ctxflow",
		},
		EnginePkgs: []string{
			fixturePathPrefix + "errenvelope",
			fixturePathPrefix + "coordenvelope",
		},
		DurablePkgs:   []string{fixturePathPrefix + "fsyncdir"},
		ClusterPkgs:   []string{fixturePathPrefix + "tracepropagation"},
		ObsPkg:        "repro/internal/obs",
		LockOrderPkgs: []string{fixturePathPrefix + "lockorder"},
		ResourcePkgs:  []string{fixturePathPrefix + "closeleak"},
		NondetSinks: map[string][]int{
			fixturePathPrefix + "nondetflow.Digest": nil,
			fixturePathPrefix + "nondetflow.Put":    {0},
		},
	}
	return fixtures, cfg
}

// wantRE extracts the backtick-quoted expectation regexes of a
// `// want ...` comment.
var wantRE = regexp.MustCompile("// want (`[^`]+`(?: `[^`]+`)*)")

// collectWants maps "file:line" to the expectation regexes on that
// line.
func collectWants(t *testing.T, pkgs []*lint.Package) map[string][]*regexp.Regexp {
	t.Helper()
	wants := make(map[string][]*regexp.Regexp)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					m := wantRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					for _, q := range strings.Split(m[1], "` `") {
						q = strings.Trim(q, "`")
						re, err := regexp.Compile(q)
						if err != nil {
							t.Fatalf("%s: bad want regexp %q: %v", key, q, err)
						}
						wants[key] = append(wants[key], re)
					}
				}
			}
		}
	}
	return wants
}

// TestFixtureGolden asserts the exact diagnostic set over the fixture
// packages: every `// want` expectation fires, nothing unexpected
// fires, every analyzer fires at least once, and the run is not clean
// (so a deliberately seeded violation fails make check via pdflint's
// nonzero exit).
func TestFixtureGolden(t *testing.T) {
	fixtures, cfg := loadFixtures(t)
	res := lint.Run(fixtures, lint.Analyzers(), cfg)

	wants := collectWants(t, fixtures)
	if len(wants) == 0 {
		t.Fatal("no // want expectations found in fixtures")
	}

	matched := make(map[string][]bool) // key -> per-want matched
	for k, ws := range wants {
		matched[k] = make([]bool, len(ws))
	}
	for _, d := range res.Diags {
		key := fmt.Sprintf("%s:%d", d.File, d.Line)
		ws, ok := wants[key]
		if !ok {
			t.Errorf("unexpected diagnostic %s", d)
			continue
		}
		hit := false
		for i, re := range ws {
			if re.MatchString(d.Message) {
				matched[key][i] = true
				hit = true
			}
		}
		if !hit {
			t.Errorf("diagnostic %s matches no want on its line", d)
		}
	}
	keys := make([]string, 0, len(wants))
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for i, ok := range matched[k] {
			if !ok {
				t.Errorf("%s: want %q never matched", k, wants[k][i].String())
			}
		}
	}

	// Every analyzer must demonstrably fire on its fixture.
	fired := make(map[string]int)
	for _, d := range res.Diags {
		fired[d.Analyzer]++
	}
	for _, a := range lint.Analyzers() {
		if fired[a.Name] == 0 {
			t.Errorf("analyzer %s produced no diagnostic on its fixture", a.Name)
		}
	}

	// Seeded violations must make the run (and so make check) fail.
	if len(res.Diags) == 0 {
		t.Fatal("fixture run is clean; pdflint would exit 0 and make check would pass a violation")
	}
}

// TestIgnoreSuppressesWithReason asserts //lint:ignore removes the
// diagnostic and records the analyzer and reason.
func TestIgnoreSuppressesWithReason(t *testing.T) {
	fixtures, cfg := loadFixtures(t)
	res := lint.Run(fixtures, lint.Analyzers(), cfg)

	const wantReason = "fixture demonstrates suppression"
	found := false
	for _, s := range res.Suppressed {
		if s.Analyzer == "rand" && s.Reason == wantReason {
			found = true
			if !strings.Contains(s.Message, "math/rand.Float64") {
				t.Errorf("suppression recorded wrong message: %q", s.Message)
			}
		}
	}
	if !found {
		t.Fatalf("no suppression with reason %q recorded; got %+v", wantReason, res.Suppressed)
	}
	for _, d := range res.Diags {
		if d.Analyzer == "rand" && strings.Contains(d.Message, "Float64") {
			t.Errorf("suppressed diagnostic still reported: %s", d)
		}
	}

	// The same regime must hold for the module-level (interprocedural)
	// analyzers, whose findings land in any file of the module: the
	// closeleak fixture suppresses a real os.File leak in place.
	const wantModReason = "fixture demonstrates interprocedural suppression"
	found = false
	for _, s := range res.Suppressed {
		if s.Analyzer == "closeleak" && s.Reason == wantModReason {
			found = true
			if !strings.Contains(s.Message, "os.File") {
				t.Errorf("closeleak suppression recorded wrong message: %q", s.Message)
			}
		}
	}
	if !found {
		t.Fatalf("no closeleak suppression with reason %q recorded", wantModReason)
	}
	for _, d := range res.Diags {
		if d.Analyzer == "closeleak" && d.Line > 0 &&
			strings.Contains(d.Message, `"f"`) && strings.Contains(d.File, "closeleak") {
			t.Errorf("suppressed closeleak diagnostic still reported: %s", d)
		}
	}
}

// TestAnalyzerAlone runs each analyzer by itself over the fixtures:
// it must report exactly its own findings of the full run, so an
// analyzer neither depends on another having run nor leaks findings
// under another's name.
func TestAnalyzerAlone(t *testing.T) {
	fixtures, cfg := loadFixtures(t)
	all := lint.Run(fixtures, lint.Analyzers(), cfg)
	for _, a := range lint.Analyzers() {
		var want []string
		for _, d := range all.Diags {
			if d.Analyzer == a.Name {
				want = append(want, d.String())
			}
		}
		var got []string
		for _, d := range lint.Run(fixtures, []*lint.Analyzer{a}, cfg).Diags {
			got = append(got, d.String())
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s alone reported\n%s\nwant its findings of the full run\n%s",
				a.Name, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}

// finding and frame match the text report's two line shapes: a
// file:line:col: [analyzer] message line per finding, and the
// indented func (file:line): note frames of its chain.
var (
	findingRE = regexp.MustCompile(`^(\S+):(\d+):(\d+): \[(\w+)\] (.+)$`)
	frameRE   = regexp.MustCompile(`^    (.+) \(([^()\s]+):(\d+)\): (.+)$`)
	summaryRE = regexp.MustCompile(`^pdflint: (\d+) finding\(s\):((?: \w+=\d+)+)$`)
)

// fixtureReport runs every analyzer over the fixtures and returns the
// result, the repository root and the lines of its text report.
func fixtureReport(t *testing.T) (*lint.Result, string, []string) {
	t.Helper()
	fixtures, cfg := loadFixtures(t)
	res := lint.Run(fixtures, lint.Analyzers(), cfg)
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.WriteText(&buf, root, false)
	return res, root, strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
}

// walkReport checks the finding lines of a text report: one per
// diagnostic of res, in order, in Diagnostic.String's format with a
// repo-relative path. It calls frame with each indented chain line's
// submatches and the finding the line falls under, and returns the
// report's last line, the summary.
func walkReport(t *testing.T, res *lint.Result, root string, lines []string,
	frame func(d *lint.Diagnostic, m []string)) string {
	t.Helper()
	var (
		findings int
		cur      *lint.Diagnostic
	)
	for _, line := range lines[:len(lines)-1] {
		if m := frameRE.FindStringSubmatch(line); m != nil {
			if cur == nil {
				t.Fatalf("chain frame before any finding: %q", line)
			}
			frame(cur, m)
			continue
		}
		m := findingRE.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line is neither a finding nor a chain frame: %q", line)
		}
		if findings >= len(res.Diags) {
			t.Fatalf("more finding lines than the %d findings", len(res.Diags))
		}
		cur = &res.Diags[findings]
		findings++
		if !strings.HasPrefix(m[1], "internal/lint/testdata/src/") {
			t.Errorf("finding path not repo-relative: %q", line)
		}
		rel := *cur
		rel.File = m[1]
		if filepath.Join(root, m[1]) != cur.File || line != rel.String() {
			t.Errorf("finding line %q does not print %s", line, cur)
		}
	}
	if findings != len(res.Diags) {
		t.Errorf("printed %d finding lines, want %d", findings, len(res.Diags))
	}
	return lines[len(lines)-1]
}

// TestTextReport pins pdflint's one output over the fixtures: one
// finding line per diagnostic in Diagnostic.String's format with
// repo-relative paths, per-analyzer counts in the summary that sum to
// the findings, and with verbose every suppression listed with its
// reason.
func TestTextReport(t *testing.T) {
	res, root, lines := fixtureReport(t)
	last := walkReport(t, res, root, lines, func(*lint.Diagnostic, []string) {})

	m := summaryRE.FindStringSubmatch(last)
	if m == nil {
		t.Fatalf("last line is not the findings summary: %q", last)
	}
	total := 0
	for _, kv := range strings.Fields(m[2]) {
		n, _ := strconv.Atoi(kv[strings.IndexByte(kv, '=')+1:])
		total += n
	}
	if n, _ := strconv.Atoi(m[1]); n != len(res.Diags) || total != len(res.Diags) {
		t.Errorf("summary %q: want %d findings, counts sum to %d", m[0], len(res.Diags), total)
	}
	if strings.Contains(strings.Join(lines, "\n"), "suppressed:") {
		t.Error("suppressions listed without verbose")
	}

	if len(res.Suppressed) == 0 {
		t.Fatal("fixture run recorded no suppressions")
	}
	var buf bytes.Buffer
	res.WriteText(&buf, root, true)
	for _, s := range res.Suppressed {
		rel, err := filepath.Rel(root, s.File)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("%s:%d: [%s] suppressed: %s (reason: %s)\n",
			filepath.ToSlash(rel), s.Line, s.Analyzer, s.Message, s.Reason)
		if !strings.Contains(buf.String(), want) {
			t.Errorf("verbose report does not list suppression %q", want)
		}
	}
}

// TestTextReportChains pins the provenance chains in the text report:
// each finding's chain is printed under it, one frame per line with a
// function, a repo-relative file:line and a note, and every
// interprocedural analyzer prints a chain under at least one fixture
// finding.
func TestTextReportChains(t *testing.T) {
	res, root, lines := fixtureReport(t)
	frames := make(map[*lint.Diagnostic]int)
	chained := make(map[string]bool)
	walkReport(t, res, root, lines, func(d *lint.Diagnostic, m []string) {
		if filepath.IsAbs(m[2]) || !strings.HasPrefix(m[2], "internal/") {
			t.Errorf("chain frame path not repo-relative: %q", m[0])
		}
		if n, _ := strconv.Atoi(m[3]); n <= 0 {
			t.Errorf("chain frame without a line: %q", m[0])
		}
		frames[d]++
		chained[d.Analyzer] = true
	})
	for i := range res.Diags {
		d := &res.Diags[i]
		if frames[d] != len(d.Chain) {
			t.Errorf("%s: printed %d chain frames, want %d", d, frames[d], len(d.Chain))
		}
	}
	for _, a := range []string{"lockorder", "ctxflow", "nondetflow", "closeleak"} {
		if !chained[a] {
			t.Errorf("analyzer %s printed no provenance chain on its fixture", a)
		}
	}
}

// TestRepositoryClean is the acceptance gate in test form: pdflint
// over the whole module must be clean, so `make lint` (and with it
// `make check`) passes.
func TestRepositoryClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module lint skipped in -short mode")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := lint.LoadModule(root, nil)
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	res := lint.Run(pkgs, lint.Analyzers(), lint.DefaultConfig())
	for _, d := range res.Diags {
		t.Errorf("repository not lint-clean: %s", d)
	}
	// The in-tree suppressions must all carry reasons.
	for _, s := range res.Suppressed {
		if s.Reason == "" || s.Reason == "(no reason given)" {
			t.Errorf("suppression without reason at %s:%d [%s]", s.File, s.Line, s.Analyzer)
		}
	}
}
