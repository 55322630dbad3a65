package obs

import (
	"io"
	"math"
	"runtime/metrics"
	"sort"
)

// GCPauseBuckets are the upper bounds of the scrape-time GC pause
// histogram, in seconds: GC pauses live in the tens of microseconds to
// low milliseconds, far below the job-latency DefBuckets.
var GCPauseBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 5e-3, 1e-2, 1e-1,
}

// RegisterGoRuntime registers the Go runtime health metrics on r:
//
//	go_goroutines          gauge      live goroutine count
//	go_heap_alloc_bytes    gauge      bytes of live heap objects
//	go_gc_pause_seconds    histogram  cumulative stop-the-world pauses
//
// All three are read from runtime/metrics at scrape time — no
// background sampler, no per-observation cost. The pause histogram is
// re-bucketed from the runtime's fine-grained buckets into
// GCPauseBuckets; its _sum is a midpoint approximation (the runtime
// exposes bucketed counts, not exact pause totals).
func RegisterGoRuntime(r *Registry) {
	r.MustRegister(
		NewGaugeFunc("go_goroutines", "Number of live goroutines.",
			func() float64 { return readRuntimeValue("/sched/goroutines:goroutines") }),
		NewGaugeFunc("go_heap_alloc_bytes", "Bytes of allocated heap objects.",
			func() float64 { return readRuntimeValue("/memory/classes/heap/objects:bytes") }),
		&gcPauseHistogram{
			name: "go_gc_pause_seconds",
			help: "Stop-the-world GC pause latency since process start (bucketed at scrape time; sum is a midpoint approximation).",
		},
	)
}

// readRuntimeValue reads one numeric runtime/metrics sample; an
// unsupported or non-numeric metric reads as 0 (future-proof against
// runtime metric renames — a scrape must never fail).
func readRuntimeValue(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	switch s[0].Value.Kind() {
	case metrics.KindUint64:
		return float64(s[0].Value.Uint64())
	case metrics.KindFloat64:
		return s[0].Value.Float64()
	}
	return 0
}

// gcPauseHistogram exposes the runtime's /gc/pauses:seconds histogram,
// re-bucketed into GCPauseBuckets at scrape time.
type gcPauseHistogram struct {
	name, help string
}

func (g *gcPauseHistogram) familyName() string { return g.name }

func (g *gcPauseHistogram) expose(w io.Writer, _ bool) error {
	counts := make([]uint64, len(GCPauseBuckets)+1) // last is +Inf
	var sum float64
	var total uint64
	s := []metrics.Sample{{Name: "/gc/pauses:seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[0].Value.Float64Histogram()
		for i, c := range h.Counts {
			if c == 0 {
				continue
			}
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			mid := midpoint(lo, hi)
			sum += mid * float64(c)
			total += c
			idx := len(GCPauseBuckets)
			if !math.IsInf(hi, 1) {
				// First of our bounds that contains the runtime
				// bucket's upper edge (le is inclusive).
				idx = sort.SearchFloat64s(GCPauseBuckets, hi)
			}
			if idx > len(GCPauseBuckets) {
				idx = len(GCPauseBuckets)
			}
			counts[idx] += c
		}
	}
	hist := Histogram{
		name:    g.name,
		help:    g.help,
		buckets: GCPauseBuckets,
		counts:  counts,
		sum:     sum,
		count:   total,
	}
	return hist.expose(w, false)
}

// midpoint approximates a value inside [lo, hi), degrading to the
// finite edge when the other is infinite.
func midpoint(lo, hi float64) float64 {
	switch {
	case math.IsInf(lo, -1) && math.IsInf(hi, 1):
		return 0
	case math.IsInf(lo, -1):
		return hi
	case math.IsInf(hi, 1):
		return lo
	}
	return (lo + hi) / 2
}
