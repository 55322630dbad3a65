package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/faultsim"
	"repro/internal/synth"
)

func TestGenerateCtxBackgroundMatchesGenerate(t *testing.T) {
	c := bench.S27()
	fcs := screened(t, c, 0)
	cfg := Config{Heuristic: ValueBased, Seed: 1}
	plain := Generate(c, fcs, cfg)
	withCtx, err := GenerateCtx(context.Background(), c, fcs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Tests) != len(withCtx.Tests) || plain.DetectedCount != withCtx.DetectedCount {
		t.Errorf("ctx variant diverges: %d/%d tests, %d/%d detected",
			len(plain.Tests), len(withCtx.Tests), plain.DetectedCount, withCtx.DetectedCount)
	}
	for i := range plain.Tests {
		if plain.Tests[i].String() != withCtx.Tests[i].String() {
			t.Fatalf("test %d differs", i)
		}
	}
}

func TestGenerateCtxCanceledBeforeStart(t *testing.T) {
	c := bench.S27()
	fcs := screened(t, c, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := GenerateCtx(ctx, c, fcs, Config{Seed: 1})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Tests) != 0 {
		t.Errorf("pre-canceled run produced %d tests", len(res.Tests))
	}
}

func TestEnrichCtxCanceledMidRun(t *testing.T) {
	c, err := synth.Benchmark("s1423")
	if err != nil {
		t.Fatal(err)
	}
	fcs := screened(t, c, 2000)
	mid := len(fcs) / 2
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := EnrichCtx(ctx, c, fcs[:mid], fcs[mid:], Config{Seed: 1})
	took := time.Since(start)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("canceled run must still return the partial result")
	}
	// Promptness: the full run takes seconds; a cancel at 50ms must
	// return well before that.
	if took > 2*time.Second {
		t.Errorf("canceled run took %v", took)
	}

	// A run canceled at a chosen poll, which lands mid-compaction,
	// must still drop exactly what its tests detect: the last test's
	// fault simulation must be of that test, whatever state the
	// compaction left behind.
	p0, p1 := fcs[:mid], fcs[mid:]
	for _, n := range []int{2, 40, 317, 1500} {
		ctx := &pollCtx{Context: context.Background(), cancelAt: n}
		res, err := EnrichCtx(ctx, c, p0, p1, Config{Seed: 1})
		if err != context.Canceled {
			t.Fatalf("cancel at poll %d: err = %v, want context.Canceled", n, err)
		}
		if len(res.Tests) == 0 {
			t.Fatalf("cancel at poll %d: no test", n)
		}
		first := faultsim.Run(c, res.Tests, fcs)
		for i, d := range res.Detected {
			if d != (first[i] >= 0) {
				t.Fatalf("cancel at poll %d: fault %d detected %v, resimulation of %d tests says %v",
					n, i, d, len(res.Tests), first[i] >= 0)
			}
		}
	}
}

// pollCtx is a context whose Err reports cancellation from its
// cancelAt-th call on: the generation loop polls Err between
// candidates, so the cancellation lands at a chosen point of a run.
type pollCtx struct {
	context.Context
	polls, cancelAt int
}

func (c *pollCtx) Err() error {
	c.polls++
	if c.polls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}
