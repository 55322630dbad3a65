package lint

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"
)

func relPath(root, path string) string {
	if root == "" {
		return path
	}
	if rel, err := filepath.Rel(root, path); err == nil && !filepath.IsAbs(rel) &&
		rel != ".." && !hasDotDotPrefix(rel) {
		return filepath.ToSlash(rel)
	}
	return path
}

func hasDotDotPrefix(rel string) bool {
	return len(rel) >= 3 && rel[:3] == ".."+string(filepath.Separator)
}

// WriteText renders the result, with every path rewritten relative to
// root so the output is stable across checkouts: one file:line:col
// line per finding, its provenance chain (if any) indented beneath it
// one frame per line, then a summary. verbose also lists the
// suppressions with their recorded reasons.
func (r *Result) WriteText(w io.Writer, root string, verbose bool) {
	counts := make(map[string]int)
	for _, d := range r.Diags {
		d.File = relPath(root, d.File)
		fmt.Fprintln(w, d)
		for _, f := range d.Chain {
			fmt.Fprintf(w, "    %s (%s:%d): %s\n", f.Func, relPath(root, f.File), f.Line, f.Note)
		}
		counts[d.Analyzer]++
	}
	if verbose {
		for _, s := range r.Suppressed {
			fmt.Fprintf(w, "%s:%d: [%s] suppressed: %s (reason: %s)\n",
				relPath(root, s.File), s.Line, s.Analyzer, s.Message, s.Reason)
		}
	}
	if len(r.Diags) == 0 {
		fmt.Fprintf(w, "pdflint: clean (%d suppression(s) on file)\n", len(r.Suppressed))
		return
	}
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "pdflint: %d finding(s):", len(r.Diags))
	for _, n := range names {
		fmt.Fprintf(w, " %s=%d", n, counts[n])
	}
	fmt.Fprintln(w)
}
