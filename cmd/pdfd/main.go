// Command pdfd serves the test generation procedures as HTTP jobs: an
// engine of bounded workers runs ATPG, enrichment and fault-simulation
// jobs with per-job deadlines, word-parallel fault simulation and a
// result cache keyed by (result version, circuit hash, spec hash),
// looked up before prepare.
//
// The engine is crash-safe: a job runs once, and a panic is contained
// to its job, which ends failed; submissions past the -shed-watermark
// are shed with 503 before the queue hard-fills, and with -journal the
// job lifecycle is written to a durable WAL — a restart on the same
// directory replays whatever was queued or running when the process
// died. SIGINT/SIGTERM drain running jobs for up to -drain before
// exiting.
//
// The daemon is observable end to end: structured logs on stdout
// (-log-format text|json, -log-level), correlated by request_id and
// job_id; a per-job span timeline covering every pipeline stage
// (pathenum, generation, compaction, simulation) served at
// /v1/jobs/{id}/trace; a live per-job event stream (SSE) at
// /v1/jobs/{id}/events; Prometheus metrics at /v1/metrics, including
// algorithm-level ATPG telemetry and Go runtime gauges; and
// net/http/pprof on a separate -debug-addr listener.
//
// Usage:
//
//	pdfd [-addr :8344] [-debug-addr ""] [-log-format text] [-log-level info]
//	     [-workers 0] [-queue 64] [-cache 128]
//	     [-timeout 10m] [-shed-watermark 0]
//	     [-journal DIR] [-drain 30s]
//
// Tracing has no flags: every job is traced (at most 512 spans), a
// trace minted here or at the coordinator edge is sampled, a caller's
// W3C traceparent is adopted with its own sampled flag, and a bounded
// tail-retention store keeps error and slowest-percentile traces.
//
// Endpoints (the versioned /v1 surface; see API.md for the contract):
//
//	POST   /v1/jobs             submit {"kind":"enrich","circuit":"s27","np":2000,"np0":300,"seed":1}
//	GET    /v1/jobs             list jobs; ?status= ?kind= ?limit= ?page_token=
//	GET    /v1/jobs/{id}        poll a job; ?wait=5s blocks until it finishes
//	DELETE /v1/jobs/{id}        cancel a job
//	GET    /v1/jobs/{id}/trace  the job's span timeline
//	GET    /v1/jobs/{id}/events live lifecycle event stream (SSE; Last-Event-ID resumes)
//	GET    /v1/traces           tail-retained traces; ?min_duration= ?outcome= ?limit=
//	GET    /v1/traces/{trace_id} one retained trace with its span timeline
//	GET    /v1/healthz          liveness probe; 503 "overloaded" past the watermark
//	GET    /v1/version          build version + Go toolchain, also pdfd_build_info
//	GET    /v1/metrics          Prometheus text exposition (OpenMetrics + exemplars via Accept)
//
// Errors everywhere use one envelope:
// {"error":{"code":"overloaded","message":"...","retry_after_ms":1000}}.
//
// See the README section "Running as a service" for curl examples.
package main

import (
	"fmt"
	"os"

	"repro/internal/cli"
)

func main() {
	if err := cli.PDFD(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "pdfd:", err)
		os.Exit(1)
	}
}
