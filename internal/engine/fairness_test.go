package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/journal"
)

// dispatchRecorder is an Injector that records the order jobs reach
// the prepare stage in (i.e. the scheduler's dispatch order) and
// optionally holds every run on a gate channel so a test can queue a
// backlog behind a single busy worker before letting dispatch proceed.
type dispatchRecorder struct {
	mu    sync.Mutex
	order []string
	gate  chan struct{} // nil: never block
}

func (d *dispatchRecorder) inject(ctx context.Context, stage Stage, id string) error {
	if stage != StagePrepare {
		return nil
	}
	d.mu.Lock()
	d.order = append(d.order, id)
	d.mu.Unlock()
	if d.gate == nil {
		return nil
	}
	select {
	case <-d.gate:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (d *dispatchRecorder) snapshot() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.order...)
}

func (d *dispatchRecorder) waitLen(t *testing.T, n int) []string {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		got := d.snapshot()
		if len(got) >= n {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d dispatches happened", len(got), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// fairnessSeq makes every spec unique so no job is served from the
// result cache — dispatch-order tests need each job to reach prepare.
var fairnessSeq atomic.Int64

func tenantSpec(tenant, priority string) Spec {
	s := s27Spec(KindGenerate)
	s.Tenant = tenant
	s.Priority = priority
	s.Seed = fairnessSeq.Add(1)
	return s
}

// A 3:1 weight split must yield a ~3:1 dispatch split while both
// tenants have queued work: with full queues on both sides, deficit
// round-robin hands gold three dispatches for every bronze one.
func TestWeightedFairDispatch(t *testing.T) {
	rec := &dispatchRecorder{gate: make(chan struct{})}
	e := New(Config{
		Workers:    1,
		QueueDepth: 128,
		Tenants: []TenantConfig{
			{Name: "gold", Weight: 3},
			{Name: "bronze", Weight: 1},
		},
		Injector: InjectorFunc(rec.inject),
	})
	defer e.Close()

	// The single worker grabs one job and parks on the gate; everything
	// submitted after that stacks up in the tenant queues.
	tenantOf := make(map[string]string)
	for i := 0; i < 40; i++ {
		for _, tenant := range []string{"gold", "bronze"} {
			j, err := e.Submit(tenantSpec(tenant, PriorityBatch))
			if err != nil {
				t.Fatalf("submit %s #%d: %v", tenant, i, err)
			}
			tenantOf[j.ID()] = tenant
		}
	}
	close(rec.gate)

	// The very first dispatch happened before the queues were full;
	// judge fairness on the next 32, a window where both queues stayed
	// non-empty throughout (40 jobs each, at most 33 consumed).
	order := rec.waitLen(t, 33)[1:33]
	var gold, bronze int
	for _, id := range order {
		switch tenantOf[id] {
		case "gold":
			gold++
		case "bronze":
			bronze++
		}
	}
	if bronze == 0 {
		t.Fatalf("bronze starved: window %v", order)
	}
	ratio := float64(gold) / float64(bronze)
	if ratio < 2.4 || ratio > 3.6 {
		t.Fatalf("gold:bronze dispatch ratio = %d:%d (%.2f), want 3:1 within 20%%", gold, bronze, ratio)
	}
}

// An interactive job submitted behind a deep batch backlog must be the
// scheduler's next pick for its tenant, not wait out the backlog.
func TestInteractiveBeatsBatchBacklog(t *testing.T) {
	rec := &dispatchRecorder{gate: make(chan struct{})}
	e := New(Config{Workers: 1, QueueDepth: 600, Injector: InjectorFunc(rec.inject)})
	defer e.Close()

	blocker, err := e.Submit(tenantSpec("", PriorityBatch))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for e.Inflight() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(2 * time.Millisecond)
	}

	for i := 0; i < 500; i++ {
		if _, err := e.Submit(tenantSpec("", PriorityBatch)); err != nil {
			t.Fatalf("batch submit #%d: %v", i, err)
		}
	}
	urgent, err := e.Submit(tenantSpec("", PriorityInteractive))
	if err != nil {
		t.Fatal(err)
	}
	close(rec.gate)

	v := waitDone(t, e, urgent.ID())
	if v.Status != StatusDone {
		t.Fatalf("interactive job ended %s (%s)", v.Status, v.Error)
	}
	order := rec.snapshot()
	pos := -1
	for i, id := range order {
		if id == urgent.ID() {
			pos = i
			break
		}
	}
	if order[0] != blocker.ID() {
		t.Fatalf("first dispatch was %s, want the blocker %s", order[0], blocker.ID())
	}
	const maxDispatches = 8
	if pos < 1 || pos > maxDispatches {
		t.Fatalf("interactive job dispatched at position %d behind a 500-job batch backlog, want <= %d", pos, maxDispatches)
	}
}

// Jobs live in the journal at crash time come back on their own
// tenants' queues after Restore, and none are lost.
func TestRestoreRefillsTenantQueues(t *testing.T) {
	dir := t.TempDir()
	tenants := []TenantConfig{{Name: "acme", Weight: 2}, {Name: "zeta", Weight: 1}}

	log1, recs, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	hold1 := &dispatchRecorder{gate: make(chan struct{})}
	e1 := New(Config{Workers: 1, Tenants: tenants, Journal: log1, Injector: InjectorFunc(hold1.inject)})
	want := map[string]int{"acme": 3, "zeta": 2}
	for tenant, n := range want {
		for i := 0; i < n; i++ {
			if _, err := e1.Submit(tenantSpec(tenant, PriorityBatch)); err != nil {
				t.Fatalf("submit %s: %v", tenant, err)
			}
		}
	}
	// Shutdown cancellations are not journaled, so every job stays
	// live on disk.
	e1.Close()
	log1.Close()

	log2, recs, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	hold2 := &dispatchRecorder{gate: make(chan struct{})}
	e2 := New(Config{Workers: 1, Tenants: tenants, Journal: log2, Injector: InjectorFunc(hold2.inject)})
	defer e2.Close()
	n, err := e2.Restore(recs)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("Restore re-enqueued %d jobs, want 5", n)
	}

	// One job is inflight on the single (gated) worker; the rest sit
	// on their tenants' queues.
	deadline := time.Now().Add(10 * time.Second)
	for e2.Inflight() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("no restored job started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	snap := e2.Metrics().Tenants
	for tenant, n := range want {
		ts, ok := snap[tenant]
		if !ok {
			t.Fatalf("tenant %s missing from snapshot %v", tenant, snap)
		}
		if got := ts.Queued + ts.Running; got != n {
			t.Errorf("tenant %s holds %d jobs after replay, want %d (%+v)", tenant, got, n, ts)
		}
	}
	close(hold2.gate)
}

// A journal can outlive its tenant roster: jobs whose tenant is gone
// from the config are rehomed onto the default tenant rather than
// dropped.
func TestRestoreRehomesUnknownTenant(t *testing.T) {
	dir := t.TempDir()

	log1, _, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	hold1 := &dispatchRecorder{gate: make(chan struct{})}
	// Anonymous mode admits any valid tenant name.
	e1 := New(Config{Workers: 1, Journal: log1, Injector: InjectorFunc(hold1.inject)})
	for i := 0; i < 2; i++ {
		if _, err := e1.Submit(tenantSpec("ghost", PriorityBatch)); err != nil {
			t.Fatal(err)
		}
	}
	e1.Close()
	log1.Close()

	log2, recs, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	hold2 := &dispatchRecorder{gate: make(chan struct{})}
	defer close(hold2.gate)
	// Strict roster without "ghost".
	e2 := New(Config{Workers: 1, Tenants: []TenantConfig{{Name: "acme"}}, Journal: log2, Injector: InjectorFunc(hold2.inject)})
	defer e2.Close()
	n, err := e2.Restore(recs)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("Restore re-enqueued %d jobs, want 2", n)
	}
	snap := e2.Metrics().Tenants
	if _, leaked := snap["ghost"]; leaked {
		t.Fatalf("unconfigured tenant ghost appeared in snapshot %v", snap)
	}
	def := snap[DefaultTenant]
	if def.Queued+def.Running != 2 {
		t.Fatalf("rehomed jobs: default tenant holds %d, want 2 (%v)", def.Queued+def.Running, snap)
	}
}

// Per-tenant inflight quotas cap concurrency for one tenant without
// idling the worker pool: a quota-capped tenant's second job waits
// while another tenant's work proceeds.
func TestMaxInflightQuota(t *testing.T) {
	rec := &dispatchRecorder{gate: make(chan struct{})}
	e := New(Config{
		Workers: 2,
		Tenants: []TenantConfig{
			{Name: "capped", MaxInflight: 1},
			{Name: "free"},
		},
		Injector: InjectorFunc(rec.inject),
	})
	defer e.Close()

	for i := 0; i < 3; i++ {
		if _, err := e.Submit(tenantSpec("capped", PriorityBatch)); err != nil {
			t.Fatal(err)
		}
	}
	free, err := e.Submit(tenantSpec("free", PriorityBatch))
	if err != nil {
		t.Fatal(err)
	}

	// Both workers should be busy: one capped job (quota 1) and the
	// free tenant's job — never two capped jobs.
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap := e.Metrics().Tenants
		if snap["capped"].Running == 1 && snap["free"].Running == 1 {
			break
		}
		if snap["capped"].Running > 1 {
			t.Fatalf("quota breached: %+v", snap["capped"])
		}
		if time.Now().After(deadline) {
			t.Fatalf("workers never reached capped=1 free=1: %v", snap)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(rec.gate)
	waitDone(t, e, free.ID())
	// Draining the capped tenant's backlog stays within quota at every
	// release; completion proves quota release re-wakes the scheduler.
	for _, id := range rec.waitLen(t, 4) {
		_ = id
	}
}

// In anonymous mode a tenant leaves the scheduler once it has nothing
// queued or running. Through 10,000 cache-hit jobs, each under a new
// name, the scheduler holds at most the default tenant and the last
// job's, which also bounds dequeue's scan of the round-robin order.
// Once the last job is released no anonymous tenant has a row in any
// pdfd_tenant_ family: neither the queued and running gauges nor the
// written jobs-done and queue-wait families.
func TestIdleTenantsLeave(t *testing.T) {
	const n, window = 10_000, 1_000
	e := New(Config{Workers: 1})
	defer e.Close()
	var firstWindow time.Duration
	start := time.Now()
	for i := 0; i < n; i++ {
		spec := s27Spec(KindGenerate)
		spec.Tenant = fmt.Sprintf("anon-%d", i)
		v, err := e.RunJob(context.Background(), spec)
		if err != nil || v.Status != StatusDone || (i > 0 && !v.CacheHit) {
			t.Fatalf("job %d: %s cache_hit=%t %s, %v", i, v.Status, v.CacheHit, v.Error, err)
		}
		switch i + 1 {
		case window:
			firstWindow = time.Since(start)
		case n - window:
			start = time.Now()
		}
	}
	t.Logf("per-job time: first %d jobs %v, last %d jobs %v",
		window, firstWindow/window, window, time.Since(start)/window)

	tenants := func() (int, int) {
		e.sched.mu.Lock()
		defer e.sched.mu.Unlock()
		return len(e.sched.tenants), len(e.sched.order)
	}
	if ts, order := tenants(); ts > 2 || order > 2 {
		t.Fatalf("scheduler holds %d tenants and %d order entries after %d names, want at most 2", ts, order, n)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if ts, _ := tenants(); ts == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the last job's tenant never left: %v", e.TenantDepths())
		}
	}
	var expo strings.Builder
	if err := e.Registry().WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	rows, stale := 0, 0
	for _, line := range strings.Split(expo.String(), "\n") {
		if !strings.HasPrefix(line, "pdfd_tenant_") {
			continue
		}
		rows++
		if strings.Contains(line, `tenant="anon-`) {
			if stale == 0 {
				t.Errorf("departed tenant still has a row: %s", line)
			}
			stale++
		}
	}
	if stale > 0 {
		t.Errorf("%d pdfd_tenant_ rows name departed tenants, want 0", stale)
	}
	t.Logf("%d pdfd_tenant_ exposition rows", rows)
}

// A submission shed at the watermark under a name the scheduler does
// not hold leaves no per-tenant row: removeLocked could never drop it.
// The shed still counts in pdfd_jobs_shed_total, and a held tenant's
// shed keeps its row.
func TestShedUnheldTenantLeavesNoRow(t *testing.T) {
	const n = 100
	running, release := make(chan struct{}, 1), make(chan struct{})
	e := New(Config{Workers: 1, ShedWatermark: 1, Injector: InjectorFunc(func(ctx context.Context, stage Stage, id string) error {
		if stage != StagePrepare {
			return nil
		}
		running <- struct{}{}
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})})
	defer e.Close()
	defer close(release)
	held := s27Spec(KindGenerate)
	held.NoCache = true
	if _, err := e.Submit(held); err != nil {
		t.Fatal(err)
	}
	<-running
	// The worker holds the first job; the second queues and trips the
	// watermark.
	if _, err := e.Submit(held); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		spec := s27Spec(KindGenerate)
		spec.Tenant = fmt.Sprintf("anon-%d", i)
		if _, err := e.Submit(spec); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("submission %d: %v, want ErrOverloaded", i, err)
		}
	}
	if _, err := e.Submit(s27Spec(KindGenerate)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("default-tenant submission: %v, want ErrOverloaded", err)
	}
	var expo strings.Builder
	if err := e.Registry().WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	stale := 0
	for _, line := range strings.Split(expo.String(), "\n") {
		if strings.HasPrefix(line, "pdfd_tenant_") && strings.Contains(line, `tenant="anon-`) {
			stale++
		}
	}
	if stale > 0 {
		t.Errorf("%d pdfd_tenant_ rows name tenants the scheduler never held, want 0", stale)
	}
	for _, want := range []string{
		fmt.Sprintf("pdfd_jobs_shed_total %d\n", n+1),
		`pdfd_tenant_shed_total{tenant="default",reason="overloaded"} 1` + "\n",
	} {
		if !strings.Contains(expo.String(), want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
}

// An anonymous-mode submission past the tenant queue bound (ErrBusy)
// is a shed like the others: it counts in pdfd_jobs_shed_total beside
// its tenant's queue_full row.
func TestQueueFullShedCounts(t *testing.T) {
	running, release := make(chan struct{}, 1), make(chan struct{})
	e := New(Config{Workers: 1, QueueDepth: 1, Injector: InjectorFunc(func(ctx context.Context, stage Stage, id string) error {
		if stage != StagePrepare {
			return nil
		}
		running <- struct{}{}
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})})
	defer e.Close()
	defer close(release)
	spec := s27Spec(KindGenerate)
	spec.NoCache = true
	if _, err := e.Submit(spec); err != nil {
		t.Fatal(err)
	}
	<-running
	if _, err := e.Submit(spec); err != nil { // fills the one queue slot
		t.Fatal(err)
	}
	if _, err := e.Submit(spec); !errors.Is(err, ErrBusy) {
		t.Fatalf("third submission: %v, want ErrBusy", err)
	}
	var expo strings.Builder
	if err := e.Registry().WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"pdfd_jobs_shed_total 1\n",
		`pdfd_tenant_shed_total{tenant="default",reason="queue_full"} 1` + "\n",
	} {
		if !strings.Contains(expo.String(), want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
}
