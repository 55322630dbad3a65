package engine

import "context"

// Fault injection: a FaultInjector set on Config.Injector is invoked
// at named sites inside the job pipeline. It is a plain configuration
// hook rather than a build tag, so the chaos suite runs in the
// ordinary `go test -race` binary; a nil injector costs one nil check
// per site. Tests use it to
//
//   - panic — exercises the per-job recover, which fails the job;
//   - sleep (honoring ctx) — injects stage latency;
//   - block until ctx is canceled — holds a job mid-run so the test
//     can crash the engine (Close without drain) and assert journal
//     replay re-runs it.
//
// Returning a non-nil error fails the stage with that error, and the
// job ends failed like any other failed run.

// Site names a fault-injection point in the job pipeline.
type Site string

// The injection sites, in pipeline order.
const (
	// SitePrepare fires as a job enters the pipeline: before the
	// circuit load, the cache lookup and the prepare stage.
	SitePrepare Site = "prepare"
	// SiteRun fires after the cache miss, before the generate /
	// enrich / faultsim procedure runs.
	SiteRun Site = "run"
	// SiteStore fires before the result is written to the cache.
	SiteStore Site = "store"
	// SiteDone fires after the pipeline completes, before the job is
	// marked done and journaled.
	SiteDone Site = "done"
)

// FaultInjector intercepts execution at named sites. Implementations
// must be safe for concurrent use; ctx is the job's run context.
type FaultInjector interface {
	Inject(ctx context.Context, site Site, jobID string) error
}

// InjectorFunc adapts a function to FaultInjector.
type InjectorFunc func(ctx context.Context, site Site, jobID string) error

// Inject implements FaultInjector.
func (f InjectorFunc) Inject(ctx context.Context, site Site, jobID string) error {
	return f(ctx, site, jobID)
}

// inject runs the configured injector at site, if any.
func (e *Engine) inject(ctx context.Context, site Site, jobID string) error {
	if e.cfg.Injector == nil {
		return nil
	}
	return e.cfg.Injector.Inject(ctx, site, jobID)
}
