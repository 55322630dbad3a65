package justify_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/circuit"
	"repro/internal/experiments"
	"repro/internal/justify"
	"repro/internal/robust"
)

// seedCase is a cube to justify and the way core reaches its
// implications: those of base (nil for a primary target), extended by
// alt.
type seedCase struct {
	base, alt *robust.Cube
	cube      robust.Cube
}

// seedCases draws cubes from the first n faults of P0: each fault's
// first alternative alone, and merged onto the last alternative of the
// fault before it.
func seedCases(d *experiments.CircuitData, n int) []seedCase {
	fs := d.P0[:min(n, len(d.P0))]
	var cases []seedCase
	for i := range fs {
		alt := &fs[i].Alts[0]
		cases = append(cases, seedCase{alt: alt, cube: *alt})
		if i > 0 {
			base := &fs[i-1].Alts[len(fs[i-1].Alts)-1]
			if m, ok := base.Merge(alt); ok {
				cases = append(cases, seedCase{base: base, alt: alt, cube: m})
			}
		}
	}
	return cases
}

func prepare(t *testing.T, name string, np0 int) *experiments.CircuitData {
	t.Helper()
	d, err := experiments.Prepare(name, experiments.Params{NP: 1000, NP0: np0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// extend leaves in im the implications core holds when it justifies
// the case, and reports whether they are consistent. They must equal
// the closure ImplyConsistent derives from the merged cube alone.
func extend(t *testing.T, c *circuit.Circuit, im, ref *robust.Implier, sc *seedCase) bool {
	t.Helper()
	im.Rollback(0)
	ok := (sc.base == nil || im.Extend(sc.base)) && im.Extend(sc.alt)
	if ok != ref.ImplyConsistent(&sc.cube) {
		t.Fatalf("%s: extended implications consistent=%v, derived %v", c.Name, ok, !ok)
	}
	for id := range c.Lines {
		for p := 0; ok && p < circuit.NumPlanes; p++ {
			if im.Value(id, p) != ref.Value(id, p) {
				t.Fatalf("%s: line %s plane %d: extended %v, derived %v",
					c.Name, c.Lines[id].Name, p, im.Value(id, p), ref.Value(id, p))
			}
		}
	}
	return ok
}

// TestJustifyImpliedMatchesJustify checks that seeding from a caller's
// implications returns, seed for seed, the tests and effort counters of
// the self-seeding path, and pins those counters: a change to probing
// shows as a counter diff here. Calls, successes and decisions were
// recorded before probes were limited to the requirement cone. The
// probe count was recorded again when commits were limited to the cone
// too, and again when a commit re-marked only the inputs whose last
// probe read a gate it changed (watched probes); both remove only
// re-probes that commit nothing, and TestJustifyTestsDigest pins the
// tests across them.
func TestJustifyImpliedMatchesJustify(t *testing.T) {
	for _, tc := range []struct {
		circuit string
		want    justify.Stats
	}{
		{"s953", justify.Stats{Calls: 121, Successes: 92, Probes: 43876, Decisions: 6167}},
		{"s641", justify.Stats{Calls: 100, Successes: 86, Probes: 33908, Decisions: 7781}},
	} {
		d := prepare(t, tc.circuit, 200)
		c := d.Circuit
		self := justify.New(c, justify.Config{Seed: 1})
		seeded := justify.New(c, justify.Config{Seed: 1})
		im, ref := robust.NewImplier(c), robust.NewImplier(c)
		for i, sc := range seedCases(d, 80) {
			t1, ok1 := self.Justify(&sc.cube)
			var t2 circuit.TwoPattern
			var ok2 bool
			if extend(t, c, im, ref, &sc) {
				t2, ok2 = seeded.JustifyImplied(&sc.cube, im)
			} else {
				t2, ok2 = seeded.Justify(&sc.cube)
			}
			if ok1 != ok2 || ok1 && t1.String() != t2.String() {
				t.Fatalf("%s case %d: self-seeded %v %v, seeded from implications %v %v", tc.circuit, i, ok1, t1, ok2, t2)
			}
			if ok1 && !sc.cube.CoveredBy(t1.Simulate(c)) {
				t.Fatalf("%s case %d: test %v does not cover the cube", tc.circuit, i, t1)
			}
		}
		if s1, s2 := self.Stats(), seeded.Stats(); s1 != s2 || s1 != tc.want {
			t.Errorf("%s: self-seeded %+v, seeded from implications %+v, want %+v", tc.circuit, s1, s2, tc.want)
		}
	}
}

// TestBnBImpliedMatchesJustify is TestJustifyImpliedMatchesJustify for
// the branch-and-bound search, whose every assignment propagates
// within the requirement cone.
func TestBnBImpliedMatchesJustify(t *testing.T) {
	want := justify.BnBStats{Calls: 17, Successes: 11, Proofs: 4, Aborts: 2, Nodes: 46041, Backtracks: 46176}
	d := prepare(t, "s1196", 10)
	c := d.Circuit
	self := justify.NewBnB(c, justify.BnBConfig{})
	seeded := justify.NewBnB(c, justify.BnBConfig{})
	im, ref := robust.NewImplier(c), robust.NewImplier(c)
	for i, sc := range seedCases(d, len(d.P0)) {
		t1, ok1, proven1 := self.Justify(&sc.cube)
		var t2 circuit.TwoPattern
		var ok2, proven2 bool
		if extend(t, c, im, ref, &sc) {
			t2, ok2, proven2 = seeded.JustifyImplied(&sc.cube, im)
		} else {
			t2, ok2, proven2 = seeded.Justify(&sc.cube)
		}
		if ok1 != ok2 || proven1 != proven2 || ok1 && t1.String() != t2.String() {
			t.Fatalf("case %d: self-seeded %v %v %v, seeded from implications %v %v %v", i, ok1, proven1, t1, ok2, proven2, t2)
		}
		if ok1 && !sc.cube.CoveredBy(t1.Simulate(c)) {
			t.Fatalf("case %d: test %v does not cover the cube", i, t1)
		}
	}
	if s1, s2 := self.Stats(), seeded.Stats(); s1 != s2 || s1 != want {
		t.Errorf("self-seeded %+v, seeded from implications %+v, want %+v", s1, s2, want)
	}
}

// TestJustifyTestsDigest pins, per circuit, the SHA-256 of the tests
// the justifier returns on TestJustifyImpliedMatchesJustify's cases
// (one line per case: the test, or "fail"). A change to how the
// search propagates that must not change its results shows here as a
// digest diff, whatever it does to the effort counters.
func TestJustifyTestsDigest(t *testing.T) {
	for _, tc := range []struct{ circuit, want string }{
		{"s953", "5c09914757df9d380dcc4df7970df76b99bd86a2c0071c38ba1b9e6df7477184"},
		{"s641", "2ba9e4ba632dec4d54b4dc4534b28f597803e97c316e5d3f2cfa9fe0fa97fc33"},
	} {
		d := prepare(t, tc.circuit, 200)
		j := justify.New(d.Circuit, justify.Config{Seed: 1})
		h := sha256.New()
		for _, sc := range seedCases(d, 80) {
			line := "fail"
			if test, ok := j.Justify(&sc.cube); ok {
				line = test.String()
			}
			fmt.Fprintln(h, line)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s: tests digest %s, want %s", tc.circuit, got, tc.want)
		}
	}
}

// TestJustifyReusesBuffers checks that a warm justifier of either kind
// allocates nothing in a call but the test it returns (its two pattern
// slices): the cone compiled per call reuses the simulator's buffers.
func TestJustifyReusesBuffers(t *testing.T) {
	d := prepare(t, "s953", 200)
	cases := seedCases(d, 80)
	j := justify.New(d.Circuit, justify.Config{Seed: 1})
	b := justify.NewBnB(d.Circuit, justify.BnBConfig{MaxBacktracks: 200})
	for _, sc := range cases {
		j.Justify(&sc.cube)
		b.Justify(&sc.cube)
	}
	for i, sc := range cases {
		if a := testing.AllocsPerRun(1, func() { j.Justify(&sc.cube) }); a > 2 {
			t.Errorf("case %d: Justifier.Justify made %.0f allocations, want at most 2", i, a)
		}
		if a := testing.AllocsPerRun(1, func() { b.Justify(&sc.cube) }); a > 2 {
			t.Errorf("case %d: BnB.Justify made %.0f allocations, want at most 2", i, a)
		}
	}
}
