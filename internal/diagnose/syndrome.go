package diagnose

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/circuit"
)

// ReadSyndrome reads tester observations, one line per test:
//
//	PASS
//	FAIL G17 G10->PO
//
// Failing output names are optional (a bare FAIL records pass/fail
// only). PO-end lines are named like any other line. Blank lines and
// lines starting with # are skipped.
func ReadSyndrome(r io.Reader, c *circuit.Circuit) ([]Observation, error) {
	byName := make(map[string]int)
	for _, po := range c.POs {
		byName[c.Lines[po].Name] = po
	}
	var out []Observation
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "PASS":
			if len(fields) != 1 {
				return nil, fmt.Errorf("diagnose: line %d: PASS takes no arguments", lineNo)
			}
			out = append(out, Observation{})
		case "FAIL":
			o := Observation{Failed: true}
			for _, n := range fields[1:] {
				po, ok := byName[n]
				if !ok {
					return nil, fmt.Errorf("diagnose: line %d: %q is not a primary output", lineNo, n)
				}
				o.FailingPOs = append(o.FailingPOs, po)
			}
			out = append(out, o)
		default:
			return nil, fmt.Errorf("diagnose: line %d: expected PASS or FAIL, got %q", lineNo, fields[0])
		}
	}
	return out, sc.Err()
}
