package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefBuckets are the default latency histogram buckets, in seconds,
// spanning sub-millisecond stages to multi-minute jobs. They are fixed
// (not adaptive) so dashboards can compare runs.
var DefBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60,
}

// Collector is anything that can expose itself in the text format:
// the 0.0.4 Prometheus flavor, or the OpenMetrics one when om is set
// (which only histograms render differently, carrying exemplars). The
// concrete types below implement it; a Registry serializes its
// collectors in registration order.
type Collector interface {
	familyName() string
	expose(w io.Writer, om bool) error
}

// Registry holds a set of metric families and serializes them in the
// Prometheus text exposition format (version 0.0.4) or OpenMetrics.
type Registry struct {
	mu    sync.Mutex
	names map[string]bool
	fams  []Collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

// MustRegister adds collectors to the registry, panicking on a
// duplicate family name (two families with one name would produce an
// invalid exposition) or a name outside the Prometheus text-format
// grammar [a-zA-Z_:][a-zA-Z0-9_:]* (pdflint's metricname analyzer
// proves this statically where names are constants; this is the
// runtime backstop for names assembled through helpers).
func (r *Registry) MustRegister(cs ...Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range cs {
		name := c.familyName()
		if !validMetricName(name) {
			panic("obs: metric family name " + strconv.Quote(name) +
				" does not match the Prometheus grammar [a-zA-Z_:][a-zA-Z0-9_:]*")
		}
		if r.names[name] {
			panic("obs: duplicate metric family " + name)
		}
		r.names[name] = true
		r.fams = append(r.fams, c)
	}
}

// validMetricName reports whether name matches the Prometheus
// text-format metric name grammar.
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, ch := range name {
		letter := (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') || ch == '_' || ch == ':'
		if !letter && (i == 0 || ch < '0' || ch > '9') {
			return false
		}
	}
	return true
}

// WritePrometheus serializes every registered family to w.
func (r *Registry) WritePrometheus(w io.Writer) error { return r.write(w, false) }

// OpenMetricsContentType is the Content-Type of WriteOpenMetrics
// output, as served by ServeHTTP.
const OpenMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// WriteOpenMetrics serializes every registered family in the
// OpenMetrics flavor of the text format: the same families and rows as
// WritePrometheus, plus per-bucket exemplars on histograms (linking a
// bucket to a retained trace ID) and the terminating "# EOF" marker.
// The 0.0.4 format has no exemplar syntax, which is why this is a
// separate, Accept-negotiated exposition.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	if err := r.write(w, true); err != nil {
		return err
	}
	_, err := io.WriteString(w, "# EOF\n")
	return err
}

// write is the one registry walk behind both formats.
func (r *Registry) write(w io.Writer, om bool) error {
	r.mu.Lock()
	fams := append([]Collector(nil), r.fams...)
	r.mu.Unlock()
	for _, f := range fams {
		if err := f.expose(w, om); err != nil {
			return err
		}
	}
	return nil
}

// ServeHTTP serves the exposition, negotiated by Accept: the 0.0.4
// text format by default, OpenMetrics (the only flavor that may carry
// exemplars) when the client asks for application/openmetrics-text.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if strings.Contains(req.Header.Get("Accept"), "application/openmetrics-text") {
		w.Header().Set("Content-Type", OpenMetricsContentType)
		r.WriteOpenMetrics(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	r.WritePrometheus(w)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the text format rules.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// labelPairs renders {k1="v1",k2="v2"} (empty string for no labels).
func labelPairs(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, n, escapeLabel(values[i]))
	}
	b.WriteByte('}')
	return b.String()
}

func header(w io.Writer, name, help, typ string) error {
	_, err := io.WriteString(w, "# HELP "+name+" "+help+"\n# TYPE "+name+" "+typ+"\n")
	return err
}

// ---- Labeled families ----

// vec is the one labeled family of written metrics. Counters and
// histograms differ only in their TYPE, how a child is made and how
// one child writes its rows; the child map, the cardinality check and
// the sorted exposition are shared.
type vec[M rowWriter] struct {
	name, help, typ string
	labels          []string
	newChild        func() M
	mu              sync.Mutex
	children        map[string]*vecChild[M]
}

// rowWriter is a family member: it writes its sample rows under the
// family name with the given label pairs (no HELP/TYPE header).
type rowWriter interface {
	writeRows(w io.Writer, name string, labels, values []string, om bool) error
}

type vecChild[M any] struct {
	values []string
	metric M
}

// CounterVec is a family of counters keyed by label values.
type CounterVec = vec[*Counter]

// HistogramVec is a family of histograms keyed by label values.
type HistogramVec = vec[*Histogram]

func newVec[M rowWriter](name, help, typ string, labels []string, newChild func() M) *vec[M] {
	return &vec[M]{name: name, help: help, typ: typ, labels: labels, newChild: newChild,
		children: make(map[string]*vecChild[M])}
}

// NewCounterVec builds a labeled counter family.
func NewCounterVec(name, help string, labels ...string) *CounterVec {
	return newVec(name, help, "counter", labels, func() *Counter { return &Counter{} })
}

// NewHistogramVec builds a labeled histogram family (nil buckets uses
// DefBuckets).
func NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return newVec(name, help, "histogram", labels, func() *Histogram {
		//lint:ignore metricname name was validated when the vec itself was registered
		return NewHistogram(name, help, buckets)
	})
}

// With returns (creating on first use) the metric for the given label
// values, which must match the label names positionally.
func (v *vec[M]) With(values ...string) M {
	if len(values) != len(v.labels) {
		panic("obs: label cardinality mismatch on " + v.name)
	}
	k := strings.Join(values, "\x00")
	v.mu.Lock()
	defer v.mu.Unlock()
	c := v.children[k]
	if c == nil {
		c = &vecChild[M]{values: append([]string(nil), values...), metric: v.newChild()}
		v.children[k] = c
	}
	return c.metric
}

// DeleteFirst drops every child whose first label value is first: the
// rows of an entity that has gone, such as an anonymous tenant that
// left the engine's scheduler. A later With of the same values starts
// a fresh child, so a counter restarts at 0.
func (v *vec[M]) DeleteFirst(first string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for k, c := range v.children {
		if c.values[0] == first {
			delete(v.children, k)
		}
	}
}

func (v *vec[M]) familyName() string { return v.name }

func (v *vec[M]) expose(w io.Writer, om bool) error {
	if err := header(w, v.name, v.help, v.typ); err != nil {
		return err
	}
	v.mu.Lock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	children := make([]*vecChild[M], 0, len(keys))
	for _, k := range keys {
		children = append(children, v.children[k])
	}
	v.mu.Unlock()
	for _, c := range children {
		if err := c.metric.writeRows(w, v.name, v.labels, c.values, om); err != nil {
			return err
		}
	}
	return nil
}

// ---- Counter ----

// Counter is a monotonically increasing integer counter.
type Counter struct {
	n atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds n (must be >= 0 for Prometheus semantics; not enforced).
func (c *Counter) Add(n int64) { c.n.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

func (c *Counter) writeRows(w io.Writer, name string, labels, values []string, _ bool) error {
	_, err := fmt.Fprintf(w, "%s%s %d\n", name, labelPairs(labels, values), c.Value())
	return err
}

// ---- Read-at-scrape families ----

// funcVec is a family whose rows are read from existing state at
// scrape time: read calls set once per row. A gauge is always one of
// these, so no series outlives the state it reports.
type funcVec struct {
	name, help, typ string
	labels          []string
	read            func(set func(v float64, values ...string))
}

// funcRow is one labeled row of a funcVec, held until the rows are
// sorted.
type funcRow struct {
	values []string
	v      float64
}

// NewGaugeVecFunc exposes a gauge family read at scrape time: read
// calls set(v, values...) once per row, the label values matching the
// label names positionally (a mismatch panics, as With does). Rows are
// written sorted by label values; a member the state no longer holds
// has no row.
func NewGaugeVecFunc(name, help string, read func(set func(v float64, values ...string)), labels ...string) Collector {
	return &funcVec{name: name, help: help, typ: "gauge", labels: labels, read: read}
}

// NewCounterFunc exposes a counter whose value is read from fn at
// scrape time — the bridge for pre-existing atomic counters.
func NewCounterFunc(name, help string, fn func() float64) Collector {
	return &funcVec{name: name, help: help, typ: "counter", read: func(set func(float64, ...string)) { set(fn()) }}
}

// NewGaugeFunc exposes a gauge whose value is read from fn at scrape
// time (queue depth, cache occupancy, overload state).
func NewGaugeFunc(name, help string, fn func() float64) Collector {
	return &funcVec{name: name, help: help, typ: "gauge", read: func(set func(float64, ...string)) { set(fn()) }}
}

func (f *funcVec) familyName() string { return f.name }

func (f *funcVec) expose(w io.Writer, _ bool) error {
	if err := header(w, f.name, f.help, f.typ); err != nil {
		return err
	}
	var rows []funcRow
	var err error
	f.read(func(v float64, values ...string) {
		if len(values) != len(f.labels) {
			panic("obs: label cardinality mismatch on " + f.name)
		}
		if len(values) > 0 {
			rows = append(rows, funcRow{values: values, v: v})
		} else if err == nil {
			_, err = io.WriteString(w, f.name+" "+formatFloat(v)+"\n")
		}
	})
	// Labeled rows go out sorted by label values, as vec sorts its
	// children.
	sort.Slice(rows, func(i, j int) bool { return slices.Compare(rows[i].values, rows[j].values) < 0 })
	for _, r := range rows {
		if err == nil {
			_, err = io.WriteString(w, f.name+labelPairs(f.labels, r.values)+" "+formatFloat(r.v)+"\n")
		}
	}
	return err
}

// ---- Histogram ----

// Histogram is a fixed-bucket latency histogram (observations in
// seconds by convention).
type Histogram struct {
	name, help string
	buckets    []float64 // upper bounds, ascending, +Inf implicit

	mu        sync.Mutex
	counts    []uint64 // len(buckets)+1; last is +Inf
	sum       float64
	count     uint64
	exemplars []exemplar // lazily len(buckets)+1; last observation per bucket
}

// exemplar links one bucket to the trace that last landed in it, in
// the OpenMetrics sense: rendered as
// `# {trace_id="..."} value timestamp` after the bucket row.
type exemplar struct {
	traceID string
	value   float64
	ts      float64 // unix seconds
}

// NewHistogram builds a histogram with the given upper bounds (nil
// uses DefBuckets). Bounds must be sorted ascending.
func NewHistogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	return &Histogram{
		name: name, help: help,
		buckets: append([]float64(nil), buckets...),
		counts:  make([]uint64, len(buckets)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) { h.ObserveExemplar(v, "") }

// ObserveExemplar records one value and attaches the trace ID as the
// bucket's exemplar (replacing any previous one — "a recent trace
// that landed here" is the contract). An empty traceID degrades to
// Observe.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	i := sort.SearchFloat64s(h.buckets, v)
	var ts float64
	if traceID != "" {
		ts = float64(time.Now().UnixMilli()) / 1000
	}
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.count++
	if traceID != "" {
		if h.exemplars == nil {
			h.exemplars = make([]exemplar, len(h.counts))
		}
		h.exemplars[i] = exemplar{traceID: traceID, value: v, ts: ts}
	}
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

func (h *Histogram) familyName() string { return h.name }

func (h *Histogram) expose(w io.Writer, om bool) error {
	if err := header(w, h.name, h.help, "histogram"); err != nil {
		return err
	}
	return h.writeRows(w, h.name, nil, nil, om)
}

// writeRows writes the bucket/sum/count rows. om appends the
// OpenMetrics exemplar suffix to bucket rows that have one; the 0.0.4
// exposition must not, since "#" starts a comment there.
func (h *Histogram) writeRows(w io.Writer, name string, labelNames, labelValues []string, om bool) error {
	h.mu.Lock()
	counts := append([]uint64(nil), h.counts...)
	sum, count := h.sum, h.count
	var exs []exemplar
	if om && h.exemplars != nil {
		exs = append([]exemplar(nil), h.exemplars...)
	}
	h.mu.Unlock()
	names := append(append([]string(nil), labelNames...), "le")
	cum := uint64(0)
	for i, n := range counts {
		cum += n
		le := "+Inf"
		if i < len(h.buckets) {
			le = formatFloat(h.buckets[i])
		}
		suffix := ""
		if exs != nil && exs[i].traceID != "" {
			suffix = fmt.Sprintf(` # {trace_id="%s"} %s %s`,
				escapeLabel(exs[i].traceID), formatFloat(exs[i].value), strconv.FormatFloat(exs[i].ts, 'f', 3, 64))
		}
		values := append(append([]string(nil), labelValues...), le)
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n", name, labelPairs(names, values), cum, suffix); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, labelPairs(labelNames, labelValues), formatFloat(sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labelPairs(labelNames, labelValues), count)
	return err
}
