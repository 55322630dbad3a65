package lint_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"regexp"
	"sort"
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

// TestSelect covers the per-analyzer enable/disable flags.
func TestSelect(t *testing.T) {
	all, err := lint.Select("", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(lint.Analyzers()) {
		t.Fatalf("Select(\"\",\"\") returned %d analyzers, want %d", len(all), len(lint.Analyzers()))
	}
	only, err := lint.Select("locks,maporder", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(only) != 2 || only[0].Name != "locks" || only[1].Name != "maporder" {
		t.Fatalf("Select enable: got %v", names(only))
	}
	without, err := lint.Select("", "timenow")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range without {
		if a.Name == "timenow" {
			t.Fatal("disabled analyzer still selected")
		}
	}
	if len(without) != len(lint.Analyzers())-1 {
		t.Fatalf("Select disable: got %d analyzers", len(without))
	}
	if _, err := lint.Select("nosuch", ""); err == nil {
		t.Fatal("Select accepted an unknown analyzer name")
	}
	if _, err := lint.Select("", "nosuch"); err == nil {
		t.Fatal("Select accepted an unknown analyzer name in -disable")
	}
}

func names(as []*lint.Analyzer) []string {
	var out []string
	for _, a := range as {
		out = append(out, a.Name)
	}
	return out
}

// TestDisabledAnalyzerReportsNothing runs the fixture set with one
// analyzer disabled and asserts its findings are gone.
func TestDisabledAnalyzerReportsNothing(t *testing.T) {
	fixtures, cfg := loadFixtures(t)
	sel, err := lint.Select("", "maporder")
	if err != nil {
		t.Fatal(err)
	}
	res := lint.Run(fixtures, sel, cfg)
	for _, d := range res.Diags {
		if d.Analyzer == "maporder" {
			t.Fatalf("disabled analyzer still reported: %s", d)
		}
	}
}

// TestJSONReport pins the -json schema documented in API.md: version,
// clean flag, sorted diagnostics with repo-relative paths, recorded
// suppressions, per-analyzer counts.
func TestJSONReport(t *testing.T) {
	fixtures, cfg := loadFixtures(t)
	res := lint.Run(fixtures, lint.Analyzers(), cfg)
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report(root)

	if rep.Version != 2 {
		t.Errorf("schema version = %d, want 2", rep.Version)
	}
	if rep.Clean {
		t.Error("fixture report claims clean")
	}
	if len(rep.Diagnostics) != len(res.Diags) {
		t.Errorf("report has %d diagnostics, result has %d", len(rep.Diagnostics), len(res.Diags))
	}
	for _, d := range rep.Diagnostics {
		if filepath.IsAbs(d.File) {
			t.Errorf("diagnostic path not repo-relative: %s", d.File)
		}
		if !strings.HasPrefix(d.File, "internal/lint/testdata/src/") {
			t.Errorf("unexpected diagnostic path %s", d.File)
		}
	}
	total := 0
	for _, n := range rep.Counts {
		total += n
	}
	if total != len(rep.Diagnostics) {
		t.Errorf("counts sum to %d, want %d", total, len(rep.Diagnostics))
	}
	if len(rep.Suppressed) == 0 {
		t.Error("report lost the recorded suppressions")
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var round struct {
		Version     int                `json:"version"`
		Clean       bool               `json:"clean"`
		Diagnostics []json.RawMessage  `json:"diagnostics"`
		Suppressed  []lint.Suppression `json:"suppressed"`
		Counts      map[string]int     `json:"counts"`
	}
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("emitted JSON does not parse: %v", err)
	}
	if round.Version != 2 || round.Clean || len(round.Diagnostics) != len(rep.Diagnostics) {
		t.Errorf("JSON roundtrip mismatch: version=%d clean=%v diags=%d",
			round.Version, round.Clean, len(round.Diagnostics))
	}

	// Text form: one file:line:col: [analyzer] line per diagnostic.
	var txt bytes.Buffer
	rep.WriteText(&txt, false)
	first := rep.Diagnostics[0]
	wantLine := fmt.Sprintf("%s:%d:%d: [%s]", first.File, first.Line, first.Col, first.Analyzer)
	if !strings.Contains(txt.String(), wantLine) {
		t.Errorf("text output missing %q:\n%s", wantLine, txt.String())
	}
}

// TestFindingIDsAndChains pins the schema-v2 additions: every
// diagnostic carries a stable 12-hex finding id (the -why handle),
// ids are unique across the run, and the interprocedural analyzers
// attach a provenance chain whose frames name function, file and line.
func TestFindingIDsAndChains(t *testing.T) {
	fixtures, cfg := loadFixtures(t)
	res := lint.Run(fixtures, lint.Analyzers(), cfg)
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report(root)

	idRE := regexp.MustCompile(`^[0-9a-f]{12}$`)
	seen := make(map[string]string)
	chained := make(map[string]bool)
	for _, d := range rep.Diagnostics {
		if !idRE.MatchString(d.ID) {
			t.Errorf("diagnostic %s:%d has malformed id %q", d.File, d.Line, d.ID)
		}
		if prev, dup := seen[d.ID]; dup {
			t.Errorf("finding id %s assigned to both %q and %q", d.ID, prev, d.Message)
		}
		seen[d.ID] = d.Message
		if got := lint.FindingID(d); got != d.ID {
			t.Errorf("FindingID not reproducible: report says %s, recompute says %s", d.ID, got)
		}
		for _, f := range d.Chain {
			if f.Func == "" || f.File == "" || f.Line <= 0 || f.Note == "" {
				t.Errorf("diagnostic %s has incomplete chain frame %+v", d.ID, f)
			}
			if filepath.IsAbs(f.File) {
				t.Errorf("chain frame path not repo-relative: %s", f.File)
			}
		}
		if len(d.Chain) > 0 {
			chained[d.Analyzer] = true
		}
	}
	// The interprocedural analyzers must explain themselves: each one
	// attaches a chain to at least one fixture finding.
	for _, a := range []string{"lockorder", "ctxflow", "nondetflow", "closeleak"} {
		if !chained[a] {
			t.Errorf("analyzer %s attached no provenance chain on its fixture", a)
		}
	}
}

// TestSARIFRoundTrip emits the SARIF 2.1.0 form of the fixture report
// and re-parses it: schema pinned, one run, every analyzer present as
// a rule, one result per diagnostic with matching rule linkage,
// location and fingerprint, and code flows mirroring the chains.
func TestSARIFRoundTrip(t *testing.T) {
	fixtures, cfg := loadFixtures(t)
	res := lint.Run(fixtures, lint.Analyzers(), cfg)
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report(root)

	var buf bytes.Buffer
	if err := rep.WriteSARIF(&buf); err != nil {
		t.Fatal(err)
	}
	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
				Level     string `json:"level"`
				Message   struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
				PartialFingerprints map[string]string `json:"partialFingerprints"`
				CodeFlows           []struct {
					ThreadFlows []struct {
						Locations []json.RawMessage `json:"locations"`
					} `json:"threadFlows"`
				} `json:"codeFlows"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("emitted SARIF does not parse: %v", err)
	}
	if log.Version != "2.1.0" || !strings.Contains(log.Schema, "sarif-schema-2.1.0") {
		t.Errorf("SARIF version/schema = %q / %q", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("SARIF has %d runs, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "pdflint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	ruleIdx := make(map[string]int)
	for i, r := range run.Tool.Driver.Rules {
		ruleIdx[r.ID] = i
	}
	for _, a := range lint.Analyzers() {
		if _, ok := ruleIdx[a.Name]; !ok {
			t.Errorf("analyzer %s missing from SARIF rules", a.Name)
		}
	}
	if len(run.Results) != len(rep.Diagnostics) {
		t.Fatalf("SARIF has %d results, report has %d diagnostics",
			len(run.Results), len(rep.Diagnostics))
	}
	for i, r := range run.Results {
		d := rep.Diagnostics[i]
		if r.RuleID != d.Analyzer || r.RuleIndex != ruleIdx[d.Analyzer] {
			t.Errorf("result %d: ruleId=%q ruleIndex=%d, want %q %d",
				i, r.RuleID, r.RuleIndex, d.Analyzer, ruleIdx[d.Analyzer])
		}
		if r.Level != "error" || r.Message.Text != d.Message {
			t.Errorf("result %d: level=%q message mismatch", i, r.Level)
		}
		if len(r.Locations) != 1 ||
			r.Locations[0].PhysicalLocation.ArtifactLocation.URI != d.File ||
			r.Locations[0].PhysicalLocation.Region.StartLine != d.Line {
			t.Errorf("result %d: location does not match %s:%d", i, d.File, d.Line)
		}
		if r.PartialFingerprints["pdflintFindingId"] != d.ID {
			t.Errorf("result %d: fingerprint %q, want finding id %s",
				i, r.PartialFingerprints["pdflintFindingId"], d.ID)
		}
		if len(d.Chain) > 0 {
			if len(r.CodeFlows) != 1 || len(r.CodeFlows[0].ThreadFlows) != 1 ||
				len(r.CodeFlows[0].ThreadFlows[0].Locations) != len(d.Chain) {
				t.Errorf("result %d: code flow does not mirror the %d-frame chain", i, len(d.Chain))
			}
		} else if len(r.CodeFlows) != 0 {
			t.Errorf("result %d: chainless diagnostic grew a code flow", i)
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
