package synth

import (
	"fmt"
	"sort"

	"repro/internal/circuit"
)

// BenchmarkProfiles are the stand-in profiles for the circuits of the
// DATE 2002 paper's experiments (Tables 3-7). Input counts match the
// combinational logic of the originals (primary inputs plus flip-flop
// outputs); gate counts (130–460) and depths are scaled down so that
// the full table suite runs in seconds while keeping well over 1000
// paths per circuit, the paper's circuit-selection criterion.
//
// Names ending in "*" in the paper (resynthesized-for-testability
// circuits from DAC 1995) are spelled with an "r" suffix here.
var BenchmarkProfiles = map[string]Profile{
	"s641":   {Name: "s641", Seed: 641, PIs: 54, Gates: 180, Levels: 20, MaxFanin: 4, XorFrac: 0.03, InvFrac: 0.15},
	"s953":   {Name: "s953", Seed: 953, PIs: 45, Gates: 260, Levels: 16, MaxFanin: 4, XorFrac: 0.02, InvFrac: 0.15},
	"s1196":  {Name: "s1196", Seed: 1196, PIs: 32, Gates: 300, Levels: 12, MaxFanin: 4, XorFrac: 0.05, InvFrac: 0.12},
	"s1423":  {Name: "s1423", Seed: 1423, PIs: 91, Gates: 340, Levels: 26, MaxFanin: 4, XorFrac: 0.03, InvFrac: 0.15},
	"s1488":  {Name: "s1488", Seed: 1488, PIs: 14, Gates: 240, Levels: 6, MaxFanin: 5, XorFrac: 0.0, InvFrac: 0.12},
	"b03":    {Name: "b03", Seed: 3003, PIs: 34, Gates: 150, Levels: 12, MaxFanin: 4, XorFrac: 0.0, InvFrac: 0.18},
	"b04":    {Name: "b04", Seed: 3004, PIs: 77, Gates: 360, Levels: 18, MaxFanin: 4, XorFrac: 0.04, InvFrac: 0.14},
	"b09":    {Name: "b09", Seed: 3009, PIs: 29, Gates: 130, Levels: 12, MaxFanin: 4, XorFrac: 0.0, InvFrac: 0.18},
	"s1423r": {Name: "s1423r", Seed: 11423, PIs: 91, Gates: 340, Levels: 24, MaxFanin: 4, XorFrac: 0.0, InvFrac: 0.12},
	"s5378r": {Name: "s5378r", Seed: 15378, PIs: 100, Gates: 420, Levels: 20, MaxFanin: 4, XorFrac: 0.0, InvFrac: 0.14},
	"s9234r": {Name: "s9234r", Seed: 19234, PIs: 110, Gates: 460, Levels: 22, MaxFanin: 4, XorFrac: 0.0, InvFrac: 0.14},
}

// PaperOrder lists the benchmark stand-ins in the order the paper's
// tables print them.
var PaperOrder = []string{"s641", "s953", "s1196", "s1423", "s1488", "b03", "b04", "b09"}

// PaperOrderEnrichment extends PaperOrder with the resynthesized
// circuits that appear only in Table 6.
var PaperOrderEnrichment = append(append([]string(nil), PaperOrder...), "s1423r", "s5378r", "s9234r")

// Benchmark generates the stand-in circuit for a paper benchmark name.
func Benchmark(name string) (*circuit.Circuit, error) {
	p, ok := BenchmarkProfiles[name]
	if !ok {
		return nil, fmt.Errorf("synth: unknown benchmark profile %q (have %v)", name, ProfileNames())
	}
	return Generate(p)
}

// ProfileNames returns the known profile names, sorted.
func ProfileNames() []string {
	names := make([]string, 0, len(BenchmarkProfiles))
	for n := range BenchmarkProfiles {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
