package obs

import (
	"context"
	"sync"
	"testing"
)

func TestSpanNestingAndSnapshot(t *testing.T) {
	tr := NewTrace(0)
	ctx := NewContext(context.Background(), tr)

	ctx1, root := StartSpan(ctx, "job", String("kind", "enrich"))
	if root == nil {
		t.Fatal("StartSpan returned nil with a trace in the context")
	}
	ctx2, child := StartSpan(ctx1, "prepare")
	_, grand := StartSpan(ctx2, "pathenum", Int("budget", 2000))
	grand.End(Int("enumerated", 17))
	child.End()
	// Sibling of prepare, still under the root.
	_, sib := StartSpan(ctx1, "generation")
	sib.End()
	root.End(String("status", "done"))

	v := tr.Snapshot()
	if len(v.Spans) != 4 || v.Dropped != 0 {
		t.Fatalf("snapshot: %d spans, %d dropped", len(v.Spans), v.Dropped)
	}
	byName := map[string]SpanView{}
	for _, s := range v.Spans {
		byName[s.Name] = s
	}
	if byName["job"].Parent != 0 {
		t.Errorf("root parent = %d, want 0", byName["job"].Parent)
	}
	if byName["prepare"].Parent != byName["job"].ID {
		t.Errorf("prepare parent = %d, want %d", byName["prepare"].Parent, byName["job"].ID)
	}
	if byName["pathenum"].Parent != byName["prepare"].ID {
		t.Errorf("pathenum parent = %d, want %d", byName["pathenum"].Parent, byName["prepare"].ID)
	}
	if byName["generation"].Parent != byName["job"].ID {
		t.Errorf("generation parent = %d, want %d", byName["generation"].Parent, byName["job"].ID)
	}
	if byName["pathenum"].Attrs["budget"] != "2000" || byName["pathenum"].Attrs["enumerated"] != "17" {
		t.Errorf("pathenum attrs merged wrong: %v", byName["pathenum"].Attrs)
	}
	for _, s := range v.Spans {
		if s.DurMS < 0 {
			t.Errorf("span %s still open in snapshot", s.Name)
		}
		if s.StartMS < 0 {
			t.Errorf("span %s starts before trace origin", s.Name)
		}
	}
}

func TestSpanNoTraceIsNoop(t *testing.T) {
	ctx, s := StartSpan(context.Background(), "anything")
	if s != nil {
		t.Fatal("expected nil span without a trace")
	}
	s.End() // nil-safe
	if ctx != context.Background() {
		t.Error("context changed without a trace")
	}
}

func TestTraceLimitDrops(t *testing.T) {
	tr := NewTrace(2)
	ctx := NewContext(context.Background(), tr)
	for i := 0; i < 5; i++ {
		_, s := StartSpan(ctx, "s")
		s.End()
	}
	v := tr.Snapshot()
	if len(v.Spans) != 2 || v.Dropped != 3 {
		t.Fatalf("limit=2: got %d spans, %d dropped", len(v.Spans), v.Dropped)
	}
}

func TestOpenSpanInSnapshot(t *testing.T) {
	tr := NewTrace(0)
	ctx := NewContext(context.Background(), tr)
	_, s := StartSpan(ctx, "open")
	v := tr.Snapshot()
	if len(v.Spans) != 1 || v.Spans[0].DurMS != -1 {
		t.Fatalf("open span: %+v", v.Spans)
	}
	s.End()
	if d := tr.Snapshot().Spans[0].DurMS; d < 0 {
		t.Fatalf("ended span DurMS = %v", d)
	}
}

// Concurrent span recording (the fault-simulation shard pattern) must
// be race-free and never lose spans below the limit.
func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace(10000)
	ctx := NewContext(context.Background(), tr)
	pctx, parent := StartSpan(ctx, "simulation")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, s := StartSpan(pctx, "shard", Int("w", w))
				s.End()
			}
		}(w)
	}
	wg.Wait()
	parent.End()
	v := tr.Snapshot()
	if len(v.Spans) != 1+8*50 {
		t.Fatalf("got %d spans", len(v.Spans))
	}
	for _, s := range v.Spans[1:] {
		if s.Parent != v.Spans[0].ID {
			t.Fatalf("shard span parented to %d, want %d", s.Parent, v.Spans[0].ID)
		}
	}
}
