package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func sampleBasicRows() []*BasicRow {
	return []*BasicRow{{
		Circuit:      "toy",
		I0:           3,
		P0Faults:     100,
		Detected:     [4]int{90, 91, 92, 93},
		Tests:        [4]int{50, 20, 19, 18},
		P0P1Faults:   200,
		P0P1Detected: [4]int{120, 118, 119, 121},
		Elapsed:      [4]time.Duration{time.Second, time.Second, time.Second, time.Second},
	}}
}

func sampleEnrichRows() []*EnrichRow {
	return []*EnrichRow{{
		Circuit: "toy", I0: 3,
		P0Total: 100, P0Detected: 93,
		AllTotal: 200, AllDetected: 170,
		Tests: 19, Ratio: 1.25,
	}}
}

func TestRenderTables3Through7(t *testing.T) {
	var buf bytes.Buffer
	RenderTable3(&buf, sampleBasicRows())
	RenderTable4(&buf, sampleBasicRows())
	RenderTable5(&buf, sampleBasicRows())
	RenderTable6(&buf, sampleEnrichRows())
	RenderTable7(&buf, sampleEnrichRows())
	out := buf.String()
	for _, want := range []string{
		"Table 3", "Table 4", "Table 5", "Table 6", "Table 7",
		"toy", "uncomp", "arbit", "length", "values", "1.25",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered tables missing %q", want)
		}
	}
	// The enrichment table must carry the detected counts.
	if !strings.Contains(out, "170") || !strings.Contains(out, "93") {
		t.Error("Table 6 numbers missing")
	}
}
