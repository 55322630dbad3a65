package obs

import (
	"fmt"
	"net/url"
	"testing"
	"time"
)

func mkRetained(id, outcome string, durMS float64) RetainedTrace {
	return RetainedTrace{
		TraceID:    id,
		Name:       "job " + id,
		Outcome:    outcome,
		DurationMS: durMS,
		Trace: &TraceView{
			TraceID: id,
			Spans:   []SpanView{{ID: 1, Name: "root", DurMS: durMS}},
		},
	}
}

func TestTraceBufferRetention(t *testing.T) {
	b := NewTraceBuffer(16, 1<<20)

	// Error traces are always kept, sampled or not.
	if got := b.Offer(mkRetained("err1", "error", 5), false); got != RetainError {
		t.Fatalf("error trace retained as %q, want %q", got, RetainError)
	}
	// Head-sampled ok traces are kept as "sampled".
	if got := b.Offer(mkRetained("ok1", "ok", 5), true); got != RetainSampled {
		t.Fatalf("sampled ok trace retained as %q, want %q", got, RetainSampled)
	}
	// Unsampled, fast, ok: dropped.
	if got := b.Offer(mkRetained("ok2", "ok", 5), false); got != "" {
		t.Fatalf("unsampled fast trace retained as %q, want drop", got)
	}
	if _, ok := b.Get("ok2"); ok {
		t.Fatal("dropped trace retrievable")
	}
	got, ok := b.Get("err1")
	if !ok || got.Trace == nil || len(got.Trace.Spans) != 1 {
		t.Fatalf("Get(err1) = %+v ok=%v, want spans included", got, ok)
	}

	// The slow rule needs a populated duration window; feed it fast
	// completions, then a slow unsampled one must be kept.
	for i := 0; i < slowMinSamples; i++ {
		b.Offer(mkRetained(fmt.Sprintf("w%d", i), "ok", 1), false)
	}
	if got := b.Offer(mkRetained("slow1", "ok", 500), false); got != RetainSlow {
		t.Fatalf("slow trace retained as %q, want %q", got, RetainSlow)
	}

	st := b.Stats()
	if st.Retained != 3 || st.Kept != 3 || st.Bytes <= 0 {
		t.Fatalf("stats = %+v, want 3 retained/kept and bytes > 0", st)
	}
}

func TestTraceBufferDedupAndList(t *testing.T) {
	b := NewTraceBuffer(16, 1<<20)
	b.Offer(mkRetained("t1", "error", 10), false)
	b.Offer(mkRetained("t1", "error", 20), false) // retry of the same trace
	b.Offer(mkRetained("t2", "ok", 30), true)

	if st := b.Stats(); st.Retained != 2 {
		t.Fatalf("dedup: %d retained, want 2", st.Retained)
	}
	if got, _ := b.Get("t1"); got.DurationMS != 20 {
		t.Fatalf("dedup kept duration %v, want the newer 20", got.DurationMS)
	}

	all := b.List(ListFilter{})
	if len(all) != 2 || all[0].TraceID != "t2" || all[1].TraceID != "t1" {
		t.Fatalf("List order = %+v, want newest first", all)
	}
	for _, s := range all {
		if s.Trace != nil {
			t.Fatalf("list summary for %s includes spans", s.TraceID)
		}
	}

	if got := b.List(ListFilter{Outcome: "error"}); len(got) != 1 || got[0].TraceID != "t1" {
		t.Fatalf("outcome filter = %+v", got)
	}
	if got := b.List(ListFilter{MinDuration: 25 * time.Millisecond}); len(got) != 1 || got[0].TraceID != "t2" {
		t.Fatalf("min_duration filter = %+v", got)
	}
	if got := b.List(ListFilter{Limit: 1}); len(got) != 1 {
		t.Fatalf("limit filter = %+v", got)
	}
}

func TestTraceBufferEvictionOrder(t *testing.T) {
	b := NewTraceBuffer(4, 1<<20)
	b.Offer(mkRetained("e1", "error", 5), false)
	b.Offer(mkRetained("s1", "ok", 5), true)
	b.Offer(mkRetained("s2", "ok", 5), true)
	b.Offer(mkRetained("e2", "error", 5), false)
	// Buffer full. A new error trace must evict the oldest sampled
	// entry, not either error entry.
	b.Offer(mkRetained("e3", "error", 5), false)

	if _, ok := b.Get("s1"); ok {
		t.Fatal("oldest sampled entry survived eviction")
	}
	for _, id := range []string{"e1", "s2", "e2", "e3"} {
		if _, ok := b.Get(id); !ok {
			t.Fatalf("%s evicted, want kept", id)
		}
	}
	if st := b.Stats(); st.Evicted != 1 {
		t.Fatalf("stats.Evicted = %d, want 1", st.Evicted)
	}
}

func TestTraceBufferNilSafe(t *testing.T) {
	var b *TraceBuffer
	if got := b.Offer(mkRetained("x", "error", 1), true); got != "" {
		t.Fatalf("nil buffer retained %q", got)
	}
	if _, ok := b.Get("x"); ok {
		t.Fatal("nil buffer Get ok")
	}
	if got := b.List(ListFilter{}); got != nil {
		t.Fatalf("nil buffer List = %+v", got)
	}
	if st := b.Stats(); st != (TraceBufferStats{}) {
		t.Fatalf("nil buffer Stats = %+v", st)
	}
}

func TestParseListFilter(t *testing.T) {
	for _, tc := range []struct {
		query   string
		want    ListFilter
		wantErr string
	}{
		{query: "", want: ListFilter{}},
		{query: "min_duration=250ms&outcome=canceled&limit=7",
			want: ListFilter{MinDuration: 250 * time.Millisecond, Outcome: "canceled", Limit: 7}},
		{query: "outcome=ok", want: ListFilter{Outcome: "ok"}},
		{query: "outcome=error", want: ListFilter{Outcome: "error"}},
		{query: "min_duration=soon", wantErr: `bad min_duration "soon"`},
		{query: "min_duration=-1s", wantErr: `bad min_duration "-1s"`},
		{query: "outcome=slow", wantErr: `unknown outcome "slow"`},
		{query: "limit=0", wantErr: `bad limit "0"`},
		{query: "limit=-3", wantErr: `bad limit "-3"`},
		{query: "limit=ten", wantErr: `bad limit "ten"`},
	} {
		qs, err := url.ParseQuery(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ParseListFilter(qs)
		if tc.wantErr != "" {
			if err == nil || err.Error() != tc.wantErr {
				t.Errorf("ParseListFilter(%q) error = %v, want %q", tc.query, err, tc.wantErr)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("ParseListFilter(%q) = %+v, %v; want %+v", tc.query, got, err, tc.want)
		}
	}
}
