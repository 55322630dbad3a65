// Package testio reads and writes the artifacts the tools exchange:
// two-pattern test sets and path delay fault lists, both in simple
// line-oriented text formats.
//
// Test set format (one test per line, '#' comments):
//
//	0110100 -> 1010010
//
// Fault list format (one fault per line):
//
//	STR G1,G12,G12->G13,G13
//
// Paths are written with line names as produced by the circuit
// builder; branch names contain "->", so path elements are separated
// by commas.
package testio

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/circuit"
	"repro/internal/delay"
	"repro/internal/faults"
	"repro/internal/tval"
)

// WriteTests writes a test set, one test per line: a TwoPattern as its
// String, or a line already in that form.
func WriteTests[T circuit.TwoPattern | string](w io.Writer, tests []T) error {
	bw := bufio.NewWriter(w)
	for _, tp := range tests {
		if _, err := fmt.Fprintln(bw, tp); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// maxLine bounds one line of a test set or fault list read from a
// stream.
const maxLine = 1 << 20

// newScanner returns a line scanner whose buffer starts at the
// default size and grows up to maxLine.
func newScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLine)
	return sc
}

// ReadTests reads a test set written by WriteTests. Each pattern must
// have exactly nInputs values over {0,1,x}; 'X' reads as x. Blank
// lines and lines starting with '#' are skipped.
func ReadTests(r io.Reader, nInputs int) ([]circuit.TwoPattern, error) {
	p := testParser{n: nInputs}
	sc := newScanner(r)
	for sc.Scan() {
		if _, _, err := p.line(sc.Text()); err != nil {
			return nil, err
		}
	}
	return p.tests, sc.Err()
}

// ParseTests parses test lines in ReadTests' format, one line per
// element, or several where an element holds '\n': it returns what
// ReadTests returns for the lines joined by '\n', without the joining.
// canon[i] is the line that held tests[i], trimmed, when it is
// byte-equal to tests[i].String(), and "" otherwise, so a caller can
// echo canonical input without rendering it again. When every element
// of lines is exactly one canonical test line, canon is lines itself,
// not a copy: the caller must not modify either while it uses the
// other. The tests' values share one allocation.
func ParseTests(lines []string, nInputs int) (tests []circuit.TwoPattern, canon []string, err error) {
	p := testParser{
		n:     nInputs,
		slab:  make([]tval.V, 0, 2*max(nInputs, 0)*len(lines)),
		tests: make([]circuit.TwoPattern, 0, len(lines)),
	}
	// While shared, canon is lines[:len(canon)]: every element so far
	// was one canonical line. At the first that is not, canon gets
	// its own array.
	shared := true
	own := func() {
		if shared {
			canon, shared = append(make([]string, 0, len(lines)), canon...), false
		}
	}
	for i, l := range lines {
		for more := true; more; {
			var line string
			line, l, more = strings.Cut(l, "\n")
			c, ok, err := p.line(line)
			if err != nil {
				return nil, nil, err
			}
			if !ok {
				continue
			}
			if shared && len(canon) == i && c == lines[i] {
				canon = lines[:i+1]
				continue
			}
			own()
			canon = append(canon, c)
		}
		if len(canon) != i+1 {
			own()
		}
	}
	return p.tests, canon, nil
}

// testParser is the one test-line grammar. It numbers the lines it is
// fed and appends each test, whose values it carves out of slab.
type testParser struct {
	n      int // values per pattern
	lineNo int
	slab   []tval.V
	tests  []circuit.TwoPattern
}

// slabTests is how many tests' values a slab grown by the parser
// holds, at least.
const slabTests = 64

// line parses one line. It reports whether the line held a test, and
// for a test the trimmed line when it is the test's String, else "".
func (p *testParser) line(raw string) (canon string, ok bool, err error) {
	p.lineNo++
	line := strings.TrimSpace(raw)
	if line == "" || line[0] == '#' {
		return "", false, nil
	}
	arrow := strings.Index(line, "->")
	if arrow < 0 || strings.Contains(line[arrow+2:], "->") {
		return "", false, fmt.Errorf("testio: line %d: expected 'p1 -> p2', got %q", p.lineNo, line)
	}
	p1, canon1, err := p.pattern(strings.TrimSpace(line[:arrow]))
	if err != nil {
		return "", false, fmt.Errorf("testio: line %d: %v", p.lineNo, err)
	}
	p3, canon3, err := p.pattern(strings.TrimSpace(line[arrow+2:]))
	if err != nil {
		return "", false, fmt.Errorf("testio: line %d: %v", p.lineNo, err)
	}
	p.tests = append(p.tests, circuit.TwoPattern{P1: p1, P3: p3})
	if n := p.n; !canon1 || !canon3 || len(line) != 2*n+4 || line[n:n+4] != " -> " {
		line = ""
	}
	return line, true, nil
}

// badChar marks the bytes that are not a pattern character in
// charValue, which maps the others to their values.
const badChar = 0xff

var charValue = func() (t [256]uint8) {
	for i := range t {
		t[i] = badChar
	}
	t['0'], t['1'], t['x'], t['X'] = uint8(tval.Zero), uint8(tval.One), uint8(tval.X), uint8(tval.X)
	return t
}()

// pattern decodes s, which must hold one value per input, into the
// slab and reports whether s is written canonically (lowercase x).
func (p *testParser) pattern(s string) (vals []tval.V, canonical bool, err error) {
	n := p.n
	if len(s) != n {
		return nil, false, fmt.Errorf("pattern %q has %d values, want %d", s, len(s), n)
	}
	if len(p.slab)+n > cap(p.slab) {
		// Earlier tests keep the old slab.
		p.slab = make([]tval.V, 0, max(cap(p.slab), 2*n*slabTests))
	}
	off := len(p.slab)
	p.slab = p.slab[:off+n]
	// The full slice expression keeps an append to one pattern from
	// reaching the next.
	vals = p.slab[off : off+n : off+n]
	for i := 0; i < n; i++ {
		v := charValue[s[i]]
		if v == badChar {
			return nil, false, fmt.Errorf("invalid value %q in pattern %q", s[i], s)
		}
		vals[i] = tval.V(v)
	}
	return vals, strings.IndexByte(s, 'X') < 0, nil
}

// WriteFaults writes a fault list using line names.
//
//lint:ignore testonly the module's integration test writes fault lists with it
func WriteFaults(w io.Writer, c *circuit.Circuit, fs []faults.Fault) error {
	bw := bufio.NewWriter(w)
	for i := range fs {
		names := make([]string, len(fs[i].Path))
		for k, l := range fs[i].Path {
			names[k] = c.Lines[l].Name
		}
		if _, err := fmt.Fprintf(bw, "%s %s\n", fs[i].Dir, strings.Join(names, ",")); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadFaults reads a fault list written by WriteFaults, resolving line
// names against the circuit, validating each path, and recomputing
// lengths under the delay model (nil means unit delays).
func ReadFaults(r io.Reader, c *circuit.Circuit, m delay.Model) ([]faults.Fault, error) {
	if m == nil {
		m = delay.Unit{}
	}
	byName := make(map[string]int, len(c.Lines))
	for i := range c.Lines {
		byName[c.Lines[i].Name] = i
	}
	var out []faults.Fault
	sc := newScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("testio: line %d: expected 'DIR path', got %q", lineNo, line)
		}
		var dir faults.Direction
		switch fields[0] {
		case "STR":
			dir = faults.SlowToRise
		case "STF":
			dir = faults.SlowToFall
		default:
			return nil, fmt.Errorf("testio: line %d: unknown direction %q", lineNo, fields[0])
		}
		names := strings.Split(fields[1], ",")
		path := make([]int, len(names))
		for k, n := range names {
			id, ok := byName[n]
			if !ok {
				return nil, fmt.Errorf("testio: line %d: unknown line %q", lineNo, n)
			}
			path[k] = id
		}
		if err := c.ValidatePath(path); err != nil {
			return nil, fmt.Errorf("testio: line %d: %v", lineNo, err)
		}
		out = append(out, faults.Fault{
			Path:   path,
			Dir:    dir,
			Length: delay.PathLength(c, m, path),
		})
	}
	return out, sc.Err()
}
