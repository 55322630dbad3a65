package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaosnet"
	"repro/internal/engine"
	"repro/internal/store"
)

// chaosFleet is a fleet whose backends carry durable stores and whose
// coordinator talks through a fault-injecting transport, so tests can
// partition, degrade and heal individual backends without touching
// production code paths.
type chaosFleet struct {
	c     *Coordinator
	srv   *httptest.Server
	tr    *chaosnet.Transport
	backs []*testBackend
	// hosts maps backend name -> "host:port" for chaosnet rules.
	hosts map[string]string
}

func newChaosFleet(t *testing.T, n, rf int) *chaosFleet {
	t.Helper()
	return newChaosFleetOver(t, n, rf, nil)
}

// newChaosFleetOver is newChaosFleet with the chaos transport wrapping
// base (nil uses http.DefaultTransport).
func newChaosFleetOver(t *testing.T, n, rf int, base http.RoundTripper) *chaosFleet {
	t.Helper()
	f := &chaosFleet{
		tr:    chaosnet.NewTransport(base, 0xc0ffee),
		hosts: make(map[string]string, n),
	}
	confs := make([]BackendConf, n)
	for i := range confs {
		name := fmt.Sprintf("b%d", i)
		st, err := store.Open(store.Config{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		tb := &testBackend{name: name}
		tb.e = engine.New(engine.Config{Workers: 2, Store: st})
		tb.srv = httptest.NewServer(engine.NewServer(tb.e))
		t.Cleanup(func() {
			tb.srv.Close()
			tb.e.Close()
			st.Close()
		})
		f.backs = append(f.backs, tb)
		f.hosts[name] = tb.srv.Listener.Addr().String()
		confs[i] = BackendConf{Name: name, URL: tb.srv.URL}
	}
	c, err := New(Config{
		Backends:          confs,
		HealthInterval:    50 * time.Millisecond,
		ReplicationFactor: rf,
		Transport:         f.tr,
		RequestTimeout:    5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.c = c
	f.srv = httptest.NewServer(NewServer(c))
	t.Cleanup(func() {
		f.srv.Close()
		c.Close()
	})
	return f
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// specOwnedBy scans seeds until one's ring primary owner is name.
func (f *chaosFleet) specOwnedBy(t *testing.T, name string, from int64) engine.Spec {
	t.Helper()
	for seed := from; seed < from+10_000; seed++ {
		s := enrichSpec(seed)
		if f.c.ring.Owner(engine.SpecDigest(s)) == name {
			return s
		}
	}
	t.Fatalf("no seed in [%d,%d) owned by %s", from, from+10_000, name)
	return engine.Spec{}
}

// Chaos pin 1: a client-side partition of the executing backend loses
// no accepted job — during the partition reads answer backend_down
// (with a retry hint), and after the heal every accepted job is
// readable with a single, stable terminal state.
func TestChaosPartitionLosesNoJob(t *testing.T) {
	f := newChaosFleet(t, 3, 2)

	type placed struct {
		id      string
		backend string
	}
	var jobs []placed
	for seed := int64(1); seed <= 4; seed++ {
		v, backend := submitVia(t, f.srv.URL, enrichSpec(seed))
		jobs = append(jobs, placed{id: v.ID, backend: backend})
	}

	// Partition the first job's backend from the coordinator. The
	// backend itself keeps running — only the link is cut.
	victim := jobs[0].backend
	f.tr.Partition(f.hosts[victim], true)

	// Reads through the cut link answer backend_down, not a hang, and
	// tell the client when to come back.
	resp, err := http.Get(f.srv.URL + "/v1/jobs/" + jobs[0].id)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("partitioned read = %d: %s", resp.StatusCode, body)
	}
	var env struct {
		Error engine.APIError `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != CodeBackendDown {
		t.Fatalf("want backend_down envelope, got %s", body)
	}
	if env.Error.RetryAfterMS <= 0 {
		t.Fatalf("backend_down envelope lacks retry_after_ms: %s", body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("backend_down response lacks Retry-After header")
	}

	// The health loop demotes the victim; its range fails over.
	waitFor(t, 5*time.Second, "victim marked down", func() bool {
		return f.c.Backends()[victim].State == StateDown
	})
	if v, backend := submitVia(t, f.srv.URL, f.specOwnedBy(t, victim, 100)); backend == victim {
		t.Fatalf("submission routed into the partition (%s)", backend)
	} else if got := waitVia(t, f.srv.URL, v.ID); got.Status != engine.StatusDone {
		t.Fatalf("failover job = %s (%s)", got.Status, got.Error)
	}

	// Heal. Every accepted job — including those behind the partition —
	// reaches exactly one terminal state and stays there.
	f.tr.Partition(f.hosts[victim], false)
	waitFor(t, 5*time.Second, "victim healthy again", func() bool {
		return f.c.Backends()[victim].State == StateHealthy
	})
	for _, j := range jobs {
		first := waitVia(t, f.srv.URL, j.id)
		if first.Status != engine.StatusDone {
			t.Fatalf("job %s = %s (%s) after heal", j.id, first.Status, first.Error)
		}
		second := waitVia(t, f.srv.URL, j.id)
		if second.Status != first.Status || second.Result.CacheKey != first.Result.CacheKey {
			t.Fatalf("job %s terminal state not stable: %s/%s vs %s/%s",
				j.id, first.Status, first.Result.CacheKey, second.Status, second.Result.CacheKey)
		}
	}
}

// Chaos pin 2: a backend whose proxied requests keep failing goes
// down, and comes back with the first probe that finds it healthy once
// the fault clears.
func TestChaosBreakerOpensAndCloses(t *testing.T) {
	f := newChaosFleet(t, 2, 0)
	target := f.backs[1]
	b, _ := f.c.backendFor(target.name)
	nope := f.srv.URL + "/v1/jobs/" + target.name + "/nope"

	// Every read fails in transport. A probe sent before the fault may
	// still answer healthy once, so read until the state settles.
	f.tr.SetRule(f.hosts[target.name], chaosnet.Rule{ErrorRate: 1.0})
	waitFor(t, 5*time.Second, "backend down under injected transport errors", func() bool {
		resp, err := http.Get(nope)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return b.State() == StateDown
	})

	// Heal: a probe brings the backend back, and reads reach it again
	// (it answers 404 over HTTP).
	f.tr.Clear()
	waitFor(t, 5*time.Second, "backend healthy after heal", func() bool {
		return b.State() == StateHealthy
	})
	resp, err := http.Get(nope)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("read after heal = %d, want the backend's 404", resp.StatusCode)
	}
}

// Chaos pin 3 (acceptance): with RF=2, killing a backend mid-sweep
// does not cost the sweep its cache — resubmitting every spec after
// the death is still a full set of cache hits, because each result
// was replicated to the ring successor before the failure.
func TestChaosReplicationSurvivesBackendDeath(t *testing.T) {
	f := newChaosFleet(t, 3, 2)

	const sweep = 6
	specs := make([]engine.Spec, 0, sweep)
	for seed := int64(1); seed <= sweep; seed++ {
		spec := enrichSpec(seed)
		specs = append(specs, spec)
		v, backend := submitVia(t, f.srv.URL, spec)
		if owner := f.c.Owner(engine.SpecDigest(spec)); backend != owner {
			t.Fatalf("seed %d routed to %s, owner %s", seed, backend, owner)
		}
		if got := waitVia(t, f.srv.URL, v.ID); got.Status != engine.StatusDone {
			t.Fatalf("seed %d = %s (%s)", seed, got.Status, got.Error)
		}
	}
	// Each job executed on its primary owner, so exactly one replica
	// copy (the ring successor) is due per job.
	waitFor(t, 15*time.Second, "replication of the sweep", func() bool {
		return f.c.repl.installs.Load() >= sweep
	})

	// Kill the owner of the first spec outright — process death, not a
	// partition: its memory cache and any unreplicated state are gone.
	victim := f.c.ring.Owner(engine.SpecDigest(specs[0]))
	for _, tb := range f.backs {
		if tb.name == victim {
			tb.srv.Close()
		}
	}
	waitFor(t, 5*time.Second, "victim marked down", func() bool {
		return f.c.Backends()[victim].State == StateDown
	})

	// Resubmit the whole sweep: specs owned by survivors hit their own
	// caches; specs owned by the victim land on the ring successor,
	// whose durable store holds the replica. Zero recomputation.
	for i, spec := range specs {
		v, backend := submitVia(t, f.srv.URL, spec)
		if backend == victim {
			t.Fatalf("spec %d routed to the dead backend", i)
		}
		got := waitVia(t, f.srv.URL, v.ID)
		if got.Status != engine.StatusDone {
			t.Fatalf("resubmit %d = %s (%s)", i, got.Status, got.Error)
		}
		if !got.CacheHit {
			t.Fatalf("resubmit %d on %s missed the cache after replication", i, backend)
		}
	}
}

// Chaos pin 4: a replica that is down at replication time gets its
// copy by hinted handoff once it recovers.
func TestChaosHintedHandoff(t *testing.T) {
	f := newChaosFleet(t, 3, 2)

	// A spec whose primary owner is b0; its replica target is the full
	// ring successor.
	spec := f.specOwnedBy(t, "b0", 1)
	owners := f.c.ring.Owners(engine.SpecDigest(spec), 2)
	replica := owners[1]

	// Take the replica down before the job runs.
	f.tr.Partition(f.hosts[replica], true)
	waitFor(t, 5*time.Second, "replica marked down", func() bool {
		return f.c.Backends()[replica].State == StateDown
	})

	v, backend := submitVia(t, f.srv.URL, spec)
	if backend != owners[0] {
		t.Fatalf("routed to %s, want owner %s", backend, owners[0])
	}
	done := waitVia(t, f.srv.URL, v.ID)
	if done.Status != engine.StatusDone {
		t.Fatalf("job = %s (%s)", done.Status, done.Error)
	}
	key := done.Result.CacheKey

	// The copy cannot be installed: it is hinted instead.
	waitFor(t, 10*time.Second, "hint queued for the down replica", func() bool {
		return f.c.repl.hintsQueued.Load() >= 1
	})

	// Heal; the recovery hook drains the hint queue.
	f.tr.Partition(f.hosts[replica], false)
	waitFor(t, 10*time.Second, "hint delivered after recovery", func() bool {
		return f.c.repl.hintsDelivered.Load() >= 1
	})

	// The replica's own engine now serves the result from its store.
	var replicaURL string
	for _, tb := range f.backs {
		if tb.name == replica {
			replicaURL = tb.srv.URL
		}
	}
	resp, err := http.Get(replicaURL + "/v1/cache/" + key)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replica GET /v1/cache/%s = %d: %s", key, resp.StatusCode, body)
	}
	var res engine.Result
	if err := json.Unmarshal(body, &res); err != nil || res.CacheKey != key {
		t.Fatalf("replica served a bad result: %v\n%s", err, body)
	}
}

// failFirstInstall fails the first PUT /v1/cache/ the coordinator sends
// in transport, and passes every other request through.
type failFirstInstall struct{ failed atomic.Bool }

func (f *failFirstInstall) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodPut && strings.HasPrefix(req.URL.Path, "/v1/cache/") && f.failed.CompareAndSwap(false, true) {
		return nil, errors.New("injected install failure")
	}
	return http.DefaultTransport.RoundTrip(req)
}

// Chaos pin 5: a replica copy hinted while the replica stayed healthy
// (one install failed in transport) is delivered after the next probe
// that finds the replica healthy; it is not stranded until the replica
// goes down and comes back.
func TestChaosHintFlushedOnHealthyProbe(t *testing.T) {
	f := newChaosFleetOver(t, 3, 2, &failFirstInstall{})
	spec := f.specOwnedBy(t, "b0", 1)
	replica := f.c.ring.Owners(engine.SpecDigest(spec), 2)[1]

	v, _ := submitVia(t, f.srv.URL, spec)
	if got := waitVia(t, f.srv.URL, v.ID); got.Status != engine.StatusDone {
		t.Fatalf("job = %s (%s)", got.Status, got.Error)
	}
	waitFor(t, 10*time.Second, "the failed install hinted", func() bool {
		return f.c.repl.hintsQueued.Load() >= 1
	})
	waitFor(t, 5*time.Second, "the hint delivered to the healthy replica", func() bool {
		return f.c.repl.hintsDelivered.Load() >= 1 && f.c.repl.pendingHints() == 0
	})
	if st := f.c.Backends()[replica].State; st != StateHealthy {
		t.Fatalf("replica %s = %s, want healthy", replica, st)
	}
	var buf bytes.Buffer
	if err := f.c.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if down := fmt.Sprintf(`pdfd_cluster_health_transitions_total{backend=%q,to="down"}`, replica); strings.Contains(buf.String(), down) {
		t.Fatalf("replica %s went down; the hint must flush while it stays healthy", replica)
	}
}

// Satellite pin: the no_backend 503 envelope carries retry_after_ms
// (its backend_down 502 sibling is pinned in
// TestChaosPartitionLosesNoJob).
func TestChaosNoBackendCarriesRetryAfter(t *testing.T) {
	f := newChaosFleet(t, 2, 0)
	for _, tb := range f.backs {
		f.tr.Partition(f.hosts[tb.name], true)
	}
	waitFor(t, 5*time.Second, "whole fleet down", func() bool {
		return f.c.Healthy() == 0
	})
	resp, body := postSpec(t, f.srv.URL, enrichSpec(1))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("dead-fleet submit = %d: %s", resp.StatusCode, body)
	}
	var env struct {
		Error engine.APIError `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != CodeNoBackend {
		t.Fatalf("want no_backend envelope, got %s", body)
	}
	if env.Error.RetryAfterMS <= 0 {
		t.Fatalf("no_backend envelope lacks retry_after_ms: %s", body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("no_backend response lacks Retry-After header")
	}
}

// The replication metric family is registered only when replication is
// enabled, and moves when results replicate.
func TestChaosReplicationMetrics(t *testing.T) {
	f := newChaosFleet(t, 2, 2)
	v, _ := submitVia(t, f.srv.URL, enrichSpec(1))
	waitVia(t, f.srv.URL, v.ID)
	waitFor(t, 15*time.Second, "one replica install", func() bool {
		return f.c.repl.installs.Load() >= 1
	})
	resp, err := http.Get(f.srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"pdfd_cluster_replication_watches_total",
		"pdfd_cluster_replication_installs_total",
		"pdfd_cluster_replication_pending_hints",
		"pdfd_cluster_replication_factor 2",
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("exposition lacks %q", want)
		}
	}

	// Replication off: the family is absent.
	f2 := newChaosFleet(t, 2, 0)
	resp, err = http.Get(f2.srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if bytes.Contains(body, []byte("pdfd_cluster_replication_")) {
		t.Fatal("replication-disabled coordinator exposes pdfd_cluster_replication_*")
	}
}
