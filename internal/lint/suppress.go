package lint

import (
	"go/ast"
	"strings"
)

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	analyzer string // "" means all analyzers
	reason   string
	line     int // the source line the directive governs
	file     string
}

// ignoreSet indexes directives by file and governed line.
type ignoreSet struct {
	byFileLine map[string]map[int]*ignoreDirective
}

// collectIgnores parses every //lint:ignore directive of the package.
// A directive governs the line it sits on; a directive on a line of
// its own governs the following line (the usual style for statements
// too long to share a line with a comment).
func collectIgnores(pkg *Package) *ignoreSet {
	set := &ignoreSet{byFileLine: make(map[string]map[int]*ignoreDirective)}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d := parseIgnore(c)
				if d == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				d.file = pos.Filename
				d.line = pos.Line
				if pos.Column == 1 || standsAlone(pkg, f, c) {
					// A full-line comment governs the next line.
					d.line = pos.Line + 1
				}
				lines := set.byFileLine[d.file]
				if lines == nil {
					lines = make(map[int]*ignoreDirective)
					set.byFileLine[d.file] = lines
				}
				lines[d.line] = d
			}
		}
	}
	return set
}

// standsAlone reports whether comment c is the only thing on its line
// (an indented directive above the governed statement).
func standsAlone(pkg *Package, f *ast.File, c *ast.Comment) bool {
	cLine := pkg.Fset.Position(c.Pos()).Line
	alone := true
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || !alone {
			return false
		}
		if _, ok := n.(*ast.File); ok {
			return true
		}
		start := pkg.Fset.Position(n.Pos()).Line
		end := pkg.Fset.Position(n.End()).Line
		if start > cLine || (end < cLine && end != 0) {
			return false // node entirely before/after the comment line
		}
		if start == cLine || end == cLine {
			switch n.(type) {
			case *ast.Comment, *ast.CommentGroup:
			default:
				// Some code shares the directive's line: it governs
				// that same line, not the next.
				if n.End() <= c.Pos() {
					alone = false
					return false
				}
			}
		}
		return true
	})
	return alone
}

func parseIgnore(c *ast.Comment) *ignoreDirective {
	text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
	if !ok {
		return nil
	}
	fields := strings.Fields(text)
	if len(fields) == 0 {
		return &ignoreDirective{reason: "(no reason given)"}
	}
	d := &ignoreDirective{analyzer: fields[0]}
	if len(fields) > 1 {
		d.reason = strings.Join(fields[1:], " ")
	} else {
		d.reason = "(no reason given)"
	}
	return d
}

// match reports whether a directive suppresses d, returning the
// recorded reason.
func (s *ignoreSet) match(d Diagnostic) (string, bool) {
	lines := s.byFileLine[d.File]
	if lines == nil {
		return "", false
	}
	dir := lines[d.Line]
	if dir == nil {
		return "", false
	}
	if dir.analyzer != "" && dir.analyzer != d.Analyzer {
		return "", false
	}
	return dir.reason, true
}
