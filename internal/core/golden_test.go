package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
)

// TestEnrichCountersGolden pins, per enrichment run, the SHA-256 of
// the tests (one line each), the detection count and every compaction
// and justification counter. A change to how the secondary loop orders
// candidates or simulates tests that must not change its results
// shows here as a diff, in whichever counter first moves.
func TestEnrichCountersGolden(t *testing.T) {
	for _, tc := range []struct {
		circuit string
		np, np0 int
		seed    int64
		want    string
	}{
		{"s953", 1000, 200, 1,
			"tests=54 sha256=f16d417287900d2c829c9edb29c3b8bb0c3878422bb33b10f155a228788c0f5b detected=263/230/33 aborts=1 accepts=208[175 33] rejects=5017[4002 1015] cheap=77 regens=54/99e4eac4fa443adf justify={Calls:207 Successes:185 Probes:92654 Decisions:11784 Backtracks:0}"},
		{"s953", 1000, 200, 2,
			"tests=55 sha256=44445e0f414b3d6aa7d816b06d78bb06e5f9aaa5e2ecd62e972be29e7b9d29da detected=263/230/33 aborts=2 accepts=208[175 33] rejects=5058[3984 1074] cheap=89 regens=55/8be575e5a2c6a586 justify={Calls:192 Successes:174 Probes:84634 Decisions:11040 Backtracks:0}"},
		{"s953", 1000, 200, 3,
			"tests=54 sha256=bed43e5b54f931c320e982ac0270d0cada7e1f928c40d84afc4fb11d21a815f6 detected=262/229/33 aborts=2 accepts=206[173 33] rejects=5025[3979 1046] cheap=83 regens=54/ad4f98910ae7568b justify={Calls:207 Successes:177 Probes:91480 Decisions:11643 Backtracks:0}"},
		{"b04", 5000, 500, 1,
			"tests=106 sha256=eb60f81fad42c57233d50e700e0e3cced8c0c2d1bd6493a88722d3cc60331a31 detected=1796/610/1186 aborts=6 accepts=1659[498 1161] rejects=132591[19753 112838] cheap=846 regens=106/550326853db3a189 justify={Calls:1463 Successes:919 Probes:1307962 Decisions:144466 Backtracks:0}"},
	} {
		d, err := experiments.Prepare(tc.circuit, experiments.Params{NP: tc.np, NP0: tc.np0, Seed: tc.seed})
		if err != nil {
			t.Fatal(err)
		}
		res := core.Enrich(d.Circuit, d.P0, d.P1, core.Config{Seed: tc.seed})
		if got := enrichCounters(res); got != tc.want {
			t.Errorf("%s np=%d np0=%d seed=%d:\n got %s\nwant %s", tc.circuit, tc.np, tc.np0, tc.seed, got, tc.want)
		}
	}
}

// enrichCounters renders what TestEnrichCountersGolden pins of a run.
func enrichCounters(res *core.EnrichResult) string {
	h := sha256.New()
	for _, test := range res.Tests {
		fmt.Fprintln(h, test.String())
	}
	regens := sha256.New()
	for _, n := range res.RegenPerTest {
		fmt.Fprintln(regens, n)
	}
	return fmt.Sprintf("tests=%d sha256=%s detected=%d/%d/%d aborts=%d accepts=%d%v rejects=%d%v cheap=%d regens=%d/%s justify=%+v",
		len(res.Tests), hex.EncodeToString(h.Sum(nil)),
		res.DetectedCount, res.DetectedP0Count, res.DetectedP1Count, res.PrimaryAborts,
		res.SecondaryAccepts, res.SecondaryAcceptsBySet, res.SecondaryRejects, res.SecondaryRejectsBySet,
		res.CheapAccepts, len(res.RegenPerTest), hex.EncodeToString(regens.Sum(nil))[:16],
		res.JustifyStats)
}
