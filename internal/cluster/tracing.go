package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// Fleet-wide tracing, coordinator side. The coordinator is the trace
// edge: a request that arrives without a W3C traceparent gets a
// sampled one minted here, and every outbound backend request —
// submissions, proxied reads, SSE, health probes, replication watcher
// polls, hinted-handoff flushes, cache copies — carries the current
// trace identity plus the caller's X-Request-ID.
// Each routed submission records its own routing trace (route /
// forward / spillover spans) and offers it to a tail-retention buffer
// at completion; GET /v1/traces/{trace_id} stitches a retained routing
// trace together with the owning backend's job timeline into one tree,
// correcting each backend's span offsets by the clock skew estimated
// from its health-probe round trips.

// newOutboundRequest is the single constructor for backend-bound HTTP
// requests (pdflint's tracepropagation analyzer enforces that nothing
// in this package calls http.NewRequest* outside it). It injects:
//
//   - traceparent: the context's trace identity; background work that
//     carries none (health probes, replication) gets a fresh unsampled
//     identity so backend access logs still correlate;
//   - X-Request-ID: forwarded from the inbound request, so one client
//     request is one ID across every hop it fans into.
func (c *Coordinator) newOutboundRequest(ctx context.Context, method, url string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return nil, err
	}
	tc, ok := obs.TraceContextFrom(ctx)
	if !ok {
		tc = obs.NewTraceContext(false)
	}
	req.Header.Set(obs.TraceparentHeader, tc.Traceparent())
	if id := obs.RequestID(ctx); id != "" {
		req.Header.Set("X-Request-ID", id)
	}
	return req, nil
}

// ensureTraceContext returns ctx carrying a trace identity: the one it
// already has, or a freshly minted sampled one. This is the
// edge-minting step — it runs once per inbound coordinator request,
// never again downstream.
func (c *Coordinator) ensureTraceContext(ctx context.Context) (context.Context, obs.TraceContext) {
	if tc, ok := obs.TraceContextFrom(ctx); ok {
		return ctx, tc
	}
	tc := obs.NewTraceContext(true)
	return obs.WithTraceContext(ctx, tc), tc
}

// Traces returns the coordinator's tail-retention buffer of routing
// traces.
func (c *Coordinator) Traces() *obs.TraceBuffer { return c.traces }

// offerRouteTrace offers one finished routing trace to the retention
// buffer and feeds the route-latency histogram, attaching the trace ID
// as an exemplar when the trace was retained.
func (c *Coordinator) offerRouteTrace(tr *obs.Trace, kind, circuit string, res SubmitResult, err *RoutedError, d time.Duration) {
	outcome, errMsg := "ok", ""
	if err != nil {
		outcome, errMsg = "error", err.Error()
	}
	snap := tr.Snapshot()
	rt := obs.RetainedTrace{
		TraceID:      tr.ID(),
		Name:         "route " + kind + " " + circuit,
		Node:         "coordinator",
		Outcome:      outcome,
		Error:        errMsg,
		DurationMS:   float64(d) / float64(time.Millisecond),
		OriginUnixMS: snap.OriginUnixMS,
		Trace:        &snap,
	}
	if res.View != nil {
		rt.JobID = res.View.ID
	}
	exemplarID := ""
	if c.traces.Offer(rt, tr.Context().Sampled) != "" {
		exemplarID = rt.TraceID
	}
	c.metrics.routeSeconds.With(outcome).ObserveExemplar(d.Seconds(), exemplarID)
}

// NodeTrace annotates one node's contribution to an assembled trace.
type NodeTrace struct {
	// Node is "coordinator" or a backend name.
	Node string `json:"node"`
	// JobID is the routable job the backend ran (backends only).
	JobID string `json:"job_id,omitempty"`
	// SkewMS is the node's estimated clock offset relative to the
	// coordinator (remote minus local, from probe round trips); its
	// span offsets in the merged tree are already corrected by it.
	SkewMS float64 `json:"skew_ms"`
	// RTTMS is the last health-probe round trip to the node.
	RTTMS float64 `json:"rtt_ms"`
	// ParentSpanID is the W3C span the node's timeline grafted under.
	ParentSpanID string `json:"parent_span_id,omitempty"`
	// Error explains a missing timeline (backend unreachable, job
	// evicted, trace-id mismatch); the assembled trace still returns
	// the coordinator's own spans.
	Error string `json:"error,omitempty"`
}

// AssembledSpan is one span of a merged cross-node trace. IDs are
// "{node}:{local span id}"; StartMS is relative to the coordinator
// trace origin, with backend offsets corrected for clock skew.
type AssembledSpan struct {
	ID      string            `json:"id"`
	Parent  string            `json:"parent,omitempty"`
	Node    string            `json:"node"`
	Name    string            `json:"name"`
	StartMS float64           `json:"start_ms"`
	DurMS   float64           `json:"dur_ms"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// AssembledTrace is the GET /v1/traces/{trace_id} response: one tree
// holding the coordinator's routing spans and the owning backend's job
// timeline, all under a single trace ID.
type AssembledTrace struct {
	TraceID      string          `json:"trace_id"`
	Name         string          `json:"name"`
	Outcome      string          `json:"outcome"`
	Error        string          `json:"error,omitempty"`
	Retained     string          `json:"retained,omitempty"`
	DurationMS   float64         `json:"duration_ms"`
	OriginUnixMS int64           `json:"origin_unix_ms,omitempty"`
	Nodes        []NodeTrace     `json:"nodes"`
	Spans        []AssembledSpan `json:"spans"`
}

// AssembleTrace merges a retained routing trace with the owning
// backend's job timeline. Backend span offsets are rebased onto the
// coordinator clock (backend origin minus estimated skew), and the
// backend's root spans are grafted under the coordinator span that
// forwarded to it, so the result reads as one tree.
func (c *Coordinator) AssembleTrace(ctx context.Context, rt obs.RetainedTrace) AssembledTrace {
	asm := AssembledTrace{
		TraceID:    rt.TraceID,
		Name:       rt.Name,
		Outcome:    rt.Outcome,
		Error:      rt.Error,
		Retained:   rt.Retained,
		DurationMS: rt.DurationMS,
	}
	var coordOrigin int64
	if rt.Trace != nil {
		coordOrigin = rt.Trace.OriginUnixMS
		asm.OriginUnixMS = coordOrigin
		for _, sv := range rt.Trace.Spans {
			asm.Spans = append(asm.Spans, rebaseSpan("coordinator", sv, 0))
		}
	}
	asm.Nodes = append(asm.Nodes, NodeTrace{Node: "coordinator"})
	if name, id, ok := strings.Cut(rt.JobID, "/"); ok {
		if b, found := c.backendFor(name); found {
			node := NodeTrace{
				Node:   name,
				JobID:  rt.JobID,
				SkewMS: float64(b.skewMS.Load()),
				RTTMS:  float64(b.rttMicros.Load()) / 1000,
			}
			tv, err := c.fetchJobTrace(ctx, b, id)
			switch {
			case err != nil:
				node.Error = err.Error()
			case tv.TraceID != rt.TraceID:
				node.Error = "trace id mismatch: backend reports " + tv.TraceID
			default:
				node.ParentSpanID = tv.ParentSpanID
				graft := forwardSpanID(rt.Trace, name)
				shift := float64(tv.OriginUnixMS-coordOrigin) - node.SkewMS
				for _, sv := range tv.Spans {
					as := rebaseSpan(name, sv, shift)
					if sv.Parent == 0 && graft != "" {
						as.Parent = graft
					}
					asm.Spans = append(asm.Spans, as)
				}
			}
			asm.Nodes = append(asm.Nodes, node)
		}
	}
	sort.SliceStable(asm.Spans, func(i, j int) bool {
		return asm.Spans[i].StartMS < asm.Spans[j].StartMS
	})
	return asm
}

// rebaseSpan converts one node-local SpanView to its merged form,
// shifting its start by shiftMS onto the coordinator clock.
func rebaseSpan(node string, sv obs.SpanView, shiftMS float64) AssembledSpan {
	as := AssembledSpan{
		ID:      fmt.Sprintf("%s:%d", node, sv.ID),
		Node:    node,
		Name:    sv.Name,
		StartMS: sv.StartMS + shiftMS,
		DurMS:   sv.DurMS,
		Attrs:   sv.Attrs,
	}
	if sv.Parent != 0 {
		as.Parent = fmt.Sprintf("%s:%d", node, sv.Parent)
	}
	return as
}

// forwardSpanID finds the coordinator span that forwarded the accepted
// submission to backend — the graft point for the backend's timeline.
// The last matching forward/spillover span wins (earlier ones were
// failed attempts).
func forwardSpanID(tv *obs.TraceView, backend string) string {
	if tv == nil {
		return ""
	}
	id := ""
	for _, sv := range tv.Spans {
		if (sv.Name == "forward" || sv.Name == "spillover") && sv.Attrs["backend"] == backend {
			id = fmt.Sprintf("coordinator:%d", sv.ID)
		}
	}
	return id
}

// fetchJobTrace pulls one backend job's span timeline.
func (c *Coordinator) fetchJobTrace(ctx context.Context, b *backend, id string) (obs.TraceView, error) {
	status, body, _, err := c.do(ctx, b, http.MethodGet, "/v1/jobs/"+id+"/trace", "jobs.trace", nil, nil)
	if err != nil {
		return obs.TraceView{}, fmt.Errorf("backend %s: %w", b.name, err)
	}
	if status != http.StatusOK {
		return obs.TraceView{}, fmt.Errorf("backend %s answered %d for the job trace", b.name, status)
	}
	var out struct {
		Trace obs.TraceView `json:"trace"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return obs.TraceView{}, fmt.Errorf("backend %s returned an unreadable trace: %w", b.name, err)
	}
	return out.Trace, nil
}
