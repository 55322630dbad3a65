package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/store"
)

func openTestStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func storeSpec(seed int64) Spec {
	return Spec{Kind: KindEnrich, Circuit: "s27", NP0: 10, Seed: seed}
}

// TestEngineStoreWarmRestart is the engine-level warm-restart pin: an
// engine dies after completing a job, a fresh engine over the same
// store directory serves the resubmission as a cache hit with a
// byte-identical result and no re-simulation.
func TestEngineStoreWarmRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	st1 := openTestStore(t, dir)
	e1 := New(Config{Workers: 2, Store: st1})
	v1, err := e1.RunJob(ctx, storeSpec(7))
	if err != nil || v1.Status != StatusDone {
		t.Fatalf("first run: %+v, %v", v1, err)
	}
	if v1.CacheHit {
		t.Fatal("first run should not be a cache hit")
	}
	first, err := json.Marshal(v1.Result)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Len() != 1 {
		t.Fatalf("store Len = %d after write-through, want 1", st1.Len())
	}
	e1.Close()
	st1.Close()

	// "Restart": a brand-new engine and store over the same directory.
	// Its in-memory LRU is empty, so a hit can only come from disk.
	st2 := openTestStore(t, dir)
	e2 := New(Config{Workers: 2, Store: st2})
	defer e2.Close()
	v2, err := e2.RunJob(ctx, storeSpec(7))
	if err != nil || v2.Status != StatusDone {
		t.Fatalf("resubmit: %+v, %v", v2, err)
	}
	if !v2.CacheHit {
		t.Fatal("resubmission after warm restart should be a cache hit")
	}
	second, err := json.Marshal(v2.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("restored result differs:\n%s\nvs\n%s", first, second)
	}
	if len(v2.Result.TestPatterns) != len(v2.Result.Tests) {
		t.Fatalf("rehydrated TestPatterns = %d, want %d", len(v2.Result.TestPatterns), len(v2.Result.Tests))
	}
	if hits := st2.MetricsRef().Hits.Load(); hits != 1 {
		t.Fatalf("store hits = %d, want 1", hits)
	}
	// Zero re-simulation: the generation stage never executed on e2.
	if n := e2.metrics.stageSeconds.With("generation").Count(); n != 0 {
		t.Fatalf("generation stage ran %d times on the restarted engine, want 0", n)
	}
}

// A store directory written under the older three-digest key
// (circuit/spec/faults) is never addressed by the current key: the job
// misses, recomputes, and returns the bytes a fresh engine computes.
func TestEngineStoreOldKeyMisses(t *testing.T) {
	ctx := context.Background()
	spec := Spec{Kind: KindEnrich, Circuit: "s27", NP0: 10, Seed: 1}
	fresh := New(Config{Workers: 1})
	defer fresh.Close()
	v, err := fresh.RunJob(ctx, spec)
	if err != nil || v.Status != StatusDone {
		t.Fatalf("fresh run: %+v, %v", v, err)
	}
	want, err := json.Marshal(v.Result)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	old := *v.Result
	old.CacheKey = v.Result.CircuitHash[:16] + "/" + SpecDigest(spec)[:16] + "/" + v.Result.FaultDigest[:16]
	payload, err := json.Marshal(&old)
	if err != nil {
		t.Fatal(err)
	}
	seed := openTestStore(t, dir)
	if err := seed.Put(old.CacheKey, payload); err != nil {
		t.Fatal(err)
	}
	seed.Close()

	st := openTestStore(t, dir)
	e := New(Config{Workers: 1, Store: st})
	defer e.Close()
	got, err := e.RunJob(ctx, spec)
	if err != nil || got.Status != StatusDone {
		t.Fatalf("run over the old store: %+v, %v", got, err)
	}
	if got.CacheHit {
		t.Fatal("an old-format store entry was served as a hit")
	}
	b, err := json.Marshal(got.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, want) {
		t.Fatalf("recomputed result differs from a fresh engine's:\n%s\nvs\n%s", b, want)
	}
	if hits := st.MetricsRef().Hits.Load(); hits != 0 {
		t.Fatalf("store hits = %d, want 0", hits)
	}
	if st.Len() != 2 {
		t.Fatalf("store Len = %d, want the old entry plus the new one", st.Len())
	}
}

func TestEngineStoreNoCacheBypassesStore(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	e := New(Config{Workers: 1, Store: st})
	defer e.Close()
	spec := storeSpec(3)
	spec.NoCache = true
	if _, err := e.RunJob(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 0 {
		t.Fatalf("NoCache job wrote %d store entries", st.Len())
	}
}

func TestInstallAndCachedResult(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	e := New(Config{Workers: 1, Store: st})
	defer e.Close()
	v, err := e.RunJob(context.Background(), storeSpec(11))
	if err != nil || v.Status != StatusDone {
		t.Fatalf("run: %+v, %v", v, err)
	}
	key := v.Result.CacheKey
	payload, ok := e.CachedResult(key)
	if !ok {
		t.Fatal("CachedResult miss for a just-computed key")
	}

	// Install the payload into a second, empty engine (the replication
	// sink); a resubmission there is then a pure store hit.
	st2 := openTestStore(t, t.TempDir())
	e2 := New(Config{Workers: 1, Store: st2})
	defer e2.Close()
	if err := e2.InstallResult(key, payload); err != nil {
		t.Fatalf("InstallResult: %v", err)
	}
	v2, err := e2.RunJob(context.Background(), storeSpec(11))
	if err != nil || !v2.CacheHit {
		t.Fatalf("resubmit on replica: hit=%v err=%v", v2.CacheHit, err)
	}

	// Key mismatch and garbage payloads are rejected.
	if err := e2.InstallResult("0000000000000000/0000000000000000/0000000000000000", payload); err == nil {
		t.Fatal("InstallResult accepted a mismatched key")
	}
	if err := e2.InstallResult(key, []byte("{not json")); err == nil {
		t.Fatal("InstallResult accepted garbage")
	}

	// Without a store, installs are refused.
	e3 := New(Config{Workers: 1})
	defer e3.Close()
	if err := e3.InstallResult(key, payload); err != ErrNoStore {
		t.Fatalf("InstallResult without store = %v, want ErrNoStore", err)
	}
}

func TestCacheEndpoints(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	e := New(Config{Workers: 1, Store: st})
	defer e.Close()
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()

	v, err := e.RunJob(context.Background(), storeSpec(5))
	if err != nil || v.Status != StatusDone {
		t.Fatalf("run: %+v, %v", v, err)
	}
	key := v.Result.CacheKey

	resp, err := http.Get(srv.URL + "/v1/cache/" + key)
	if err != nil {
		t.Fatal(err)
	}
	var got Result
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || got.CacheKey != key {
		t.Fatalf("GET cache = %d, key %q", resp.StatusCode, got.CacheKey)
	}

	resp, err = http.Get(srv.URL + "/v1/cache/ffffffffffffffff/ffffffffffffffff/ffffffffffffffff")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET missing cache key = %d, want 404", resp.StatusCode)
	}

	// Round-trip through PUT on a second engine.
	payload, _ := e.CachedResult(key)
	st2 := openTestStore(t, t.TempDir())
	e2 := New(Config{Workers: 1, Store: st2})
	defer e2.Close()
	srv2 := httptest.NewServer(NewServer(e2))
	defer srv2.Close()
	req, _ := http.NewRequest(http.MethodPut, srv2.URL+"/v1/cache/"+key, bytes.NewReader(payload))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT cache = %d, want 200", resp.StatusCode)
	}
	if st2.Len() != 1 {
		t.Fatalf("replica store Len = %d, want 1", st2.Len())
	}

	// Bad payload → invalid_spec envelope; no store → no_store.
	req, _ = http.NewRequest(http.MethodPut, srv2.URL+"/v1/cache/"+key, strings.NewReader("{bad"))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Error APIError `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || env.Error.Code != CodeInvalidSpec {
		t.Fatalf("PUT bad payload = %d code %q", resp.StatusCode, env.Error.Code)
	}

	e3 := New(Config{Workers: 1})
	defer e3.Close()
	srv3 := httptest.NewServer(NewServer(e3))
	defer srv3.Close()
	req, _ = http.NewRequest(http.MethodPut, srv3.URL+"/v1/cache/"+key, bytes.NewReader(payload))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented || env.Error.Code != CodeNoStore {
		t.Fatalf("PUT without store = %d code %q", resp.StatusCode, env.Error.Code)
	}
}

// TestStoreMetricsExposed pins the pdfd_store_* family registration.
func TestStoreMetricsExposed(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	e := New(Config{Workers: 1, Store: st})
	defer e.Close()
	if _, err := e.RunJob(context.Background(), storeSpec(1)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	e.Registry().WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"pdfd_store_hits_total", "pdfd_store_misses_total", "pdfd_store_puts_total",
		"pdfd_store_put_errors_total", "pdfd_store_evictions_total", "pdfd_store_corrupt_total",
		"pdfd_store_entries 1", "pdfd_store_bytes",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q", want)
		}
	}
	// Without a store, the family is absent entirely.
	e2 := New(Config{Workers: 1})
	defer e2.Close()
	buf.Reset()
	e2.Registry().WritePrometheus(&buf)
	if strings.Contains(buf.String(), "pdfd_store_") {
		t.Fatal("storeless engine exposes pdfd_store_* metrics")
	}
}
