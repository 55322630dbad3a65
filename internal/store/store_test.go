package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/durable"
)

func mustOpen(t *testing.T, cfg Config) *Store {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func testKey(i int) string {
	h := fmt.Sprintf("%016x", i)
	return h + "/" + h + "/" + h
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Config{Dir: dir})
	key := testKey(1)
	payload := []byte(`{"tests":["01x","10x"]}`)
	if err := s.Put(key, payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok := s.Get(key)
	if !ok {
		t.Fatalf("Get: miss after Put")
	}
	if string(got) != string(payload) {
		t.Fatalf("Get: payload mismatch: %q != %q", got, payload)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	if s.Bytes() != int64(len(payload)) {
		t.Fatalf("Bytes = %d, want %d", s.Bytes(), len(payload))
	}

	// A second Open over the same directory sees the entry: the
	// durable path survives process death.
	s2 := mustOpen(t, Config{Dir: dir})
	got, ok = s2.Get(key)
	if !ok || string(got) != string(payload) {
		t.Fatalf("reopened Get = %q, %v; want %q, true", got, ok, payload)
	}
	m := s2.MetricsRef()
	if m.Hits.Load() != 1 || m.Misses.Load() != 0 {
		t.Fatalf("metrics hits=%d misses=%d, want 1/0", m.Hits.Load(), m.Misses.Load())
	}
}

func TestStoreMissAndOverwrite(t *testing.T) {
	s := mustOpen(t, Config{})
	if _, ok := s.Get(testKey(9)); ok {
		t.Fatal("Get on empty store should miss")
	}
	key := testKey(2)
	if err := s.Put(key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key, []byte("longer-v2")); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok || string(got) != "longer-v2" {
		t.Fatalf("Get after overwrite = %q, %v", got, ok)
	}
	if s.Len() != 1 {
		t.Fatalf("Len after overwrite = %d, want 1", s.Len())
	}
	if s.Bytes() != int64(len("longer-v2")) {
		t.Fatalf("Bytes after overwrite = %d", s.Bytes())
	}
}

// Has answers from the index alone: it reads no file and moves no
// counter.
func TestStoreHas(t *testing.T) {
	s := mustOpen(t, Config{})
	key := testKey(3)
	if s.Has(key) {
		t.Fatal("Has on empty store")
	}
	if err := s.Put(key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(s.path(key)); err != nil {
		t.Fatal(err)
	}
	if !s.Has(key) {
		t.Fatal("Has missed an indexed key")
	}
	if m := s.MetricsRef(); m.Hits.Load() != 0 || m.Misses.Load() != 0 || m.Corrupt.Load() != 0 {
		t.Fatalf("Has moved counters: hits=%d misses=%d corrupt=%d", m.Hits.Load(), m.Misses.Load(), m.Corrupt.Load())
	}
	s.Close()
	if s.Has(key) {
		t.Fatal("Has after Close")
	}
}

func TestStoreInvalidKeys(t *testing.T) {
	s := mustOpen(t, Config{})
	for _, key := range []string{"", "UPPER", "../../etc/passwd", "a b", "abc\x00"} {
		if err := s.Put(key, []byte("x")); err == nil {
			t.Fatalf("Put(%q) accepted an invalid key", key)
		}
		if _, ok := s.Get(key); ok {
			t.Fatalf("Get(%q) hit on an invalid key", key)
		}
	}
}

func TestStoreEvictionByEntries(t *testing.T) {
	s := mustOpen(t, Config{Dir: t.TempDir(), MaxEntries: 3})
	for i := 0; i < 5; i++ {
		if err := s.Put(testKey(i), []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	// Oldest two evicted, newest three retained.
	for i := 0; i < 2; i++ {
		if _, ok := s.Get(testKey(i)); ok {
			t.Fatalf("key %d should have been evicted", i)
		}
	}
	for i := 2; i < 5; i++ {
		if _, ok := s.Get(testKey(i)); !ok {
			t.Fatalf("key %d should have survived", i)
		}
	}
	if got := s.MetricsRef().Evictions.Load(); got != 2 {
		t.Fatalf("evictions = %d, want 2", got)
	}
}

func TestStoreEvictionByBytesRespectsLRU(t *testing.T) {
	s := mustOpen(t, Config{Dir: t.TempDir(), MaxEntries: -1, MaxBytes: 30})
	for i := 0; i < 3; i++ {
		if err := s.Put(testKey(i), []byte("0123456789")); err != nil {
			t.Fatal(err)
		}
	}
	// Touch key 0 so key 1 is now least recently used.
	if _, ok := s.Get(testKey(0)); !ok {
		t.Fatal("key 0 missing")
	}
	if err := s.Put(testKey(3), []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(testKey(1)); ok {
		t.Fatal("key 1 (LRU) should have been evicted")
	}
	if _, ok := s.Get(testKey(0)); !ok {
		t.Fatal("recently used key 0 should have survived")
	}
	if s.Bytes() > 30 {
		t.Fatalf("Bytes = %d, want <= 30", s.Bytes())
	}
}

func TestStoreReopenPreservesRecency(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Config{Dir: dir})
	for i := 0; i < 4; i++ {
		if err := s.Put(testKey(i), []byte("p")); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes so the reopen scan recovers the order even
		// on coarse-granularity filesystems.
		ts := time.Unix(1_700_000_000+int64(i), 0)
		if err := os.Chtimes(filepath.Join(dir, fileFromKey(testKey(i))), ts, ts); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	s2 := mustOpen(t, Config{Dir: dir, MaxEntries: 2})
	if s2.Len() != 2 {
		t.Fatalf("Len = %d, want 2 after bounded reopen", s2.Len())
	}
	// The newest two (by mtime) survive the reopen eviction.
	for i := 0; i < 2; i++ {
		if _, ok := s2.Get(testKey(i)); ok {
			t.Fatalf("old key %d survived bounded reopen", i)
		}
	}
	for i := 2; i < 4; i++ {
		if _, ok := s2.Get(testKey(i)); !ok {
			t.Fatalf("new key %d evicted on bounded reopen", i)
		}
	}
}

func TestStoreTmpFilesSweptAtOpen(t *testing.T) {
	dir := t.TempDir()
	leftover := filepath.Join(dir, fileFromKey(testKey(7))+durable.TmpSuffix)
	if err := os.WriteFile(leftover, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, Config{Dir: dir})
	if s.Len() != 0 {
		t.Fatalf("Len = %d, want 0", s.Len())
	}
	if _, err := os.Stat(leftover); !os.IsNotExist(err) {
		t.Fatalf("leftover tmp file not swept: %v", err)
	}
}

func TestStoreClosed(t *testing.T) {
	s := mustOpen(t, Config{})
	key := testKey(1)
	if err := s.Put(key, []byte("x")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.Put(key, []byte("y")); err != ErrClosed {
		t.Fatalf("Put after Close = %v, want ErrClosed", err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("Get after Close should miss")
	}
}

// TestStoreCrashConsistency is the torn-write sweep: for every
// prefix length of a written entry file (and for every single-byte
// corruption), a load either returns the full payload or a clean
// miss — never a partial payload, never a panic. Mirrors the journal
// torn-tail test.
func TestStoreCrashConsistency(t *testing.T) {
	key := testKey(42)
	payload := []byte(`{"id":"torn","tests":["0101","1010","xx11"]}`)

	// A pristine write to copy from.
	srcDir := t.TempDir()
	src := mustOpen(t, Config{Dir: srcDir})
	if err := src.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(filepath.Join(srcDir, fileFromKey(key)))
	if err != nil {
		t.Fatal(err)
	}

	check := func(t *testing.T, mutate func([]byte) []byte, wantFullOK bool) {
		t.Helper()
		dir := t.TempDir()
		data := mutate(append([]byte(nil), full...))
		if err := os.WriteFile(filepath.Join(dir, fileFromKey(key)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s := mustOpen(t, Config{Dir: dir})
		got, ok := s.Get(key)
		if wantFullOK {
			if !ok || string(got) != string(payload) {
				t.Fatalf("intact entry: got %q, %v", got, ok)
			}
			return
		}
		if ok {
			t.Fatalf("corrupt entry returned a hit: %q", got)
		}
		// A corrupted entry is removed, so the second read is a plain
		// miss with no further corruption counted.
		if _, ok := s.Get(key); ok {
			t.Fatal("corrupt entry not removed after first Get")
		}
		if c := s.MetricsRef().Corrupt.Load(); c != 1 {
			t.Fatalf("corrupt count = %d, want 1", c)
		}
	}

	t.Run("intact", func(t *testing.T) {
		check(t, func(b []byte) []byte { return b }, true)
	})

	// Truncation at every byte offset: the torn-write spectrum.
	for cut := 0; cut < len(full); cut++ {
		cut := cut
		t.Run(fmt.Sprintf("truncate_%d", cut), func(t *testing.T) {
			check(t, func(b []byte) []byte { return b[:cut] }, false)
		})
	}

	// Single-byte corruption at every offset: header, length, CRC and
	// payload damage must all be detected.
	for off := 0; off < len(full); off++ {
		off := off
		t.Run(fmt.Sprintf("flip_%d", off), func(t *testing.T) {
			check(t, func(b []byte) []byte { b[off] ^= 0xff; return b }, false)
		})
	}

	// Trailing garbage after a complete frame is also rejected.
	t.Run("trailing", func(t *testing.T) {
		check(t, func(b []byte) []byte { return append(b, 0xAA) }, false)
	})
}

func TestStoreConcurrent(t *testing.T) {
	s := mustOpen(t, Config{Dir: t.TempDir(), MaxEntries: 16})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := testKey(g*4 + i%4)
				if err := s.Put(k, []byte(strings.Repeat("x", i+1))); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				s.Get(k)
			}
		}(g)
	}
	wg.Wait()
	if s.Len() == 0 || s.Len() > 16 {
		t.Fatalf("Len = %d, want 1..16", s.Len())
	}
}

func TestKeyFileMapping(t *testing.T) {
	key := testKey(5)
	name := fileFromKey(key)
	if strings.ContainsRune(name, '/') {
		t.Fatalf("file name %q contains a path separator", name)
	}
	back, ok := keyFromFile(name)
	if !ok || back != key {
		t.Fatalf("round trip %q -> %q -> %q, ok=%v", key, name, back, ok)
	}
	if _, ok := keyFromFile("README.md"); ok {
		t.Fatal("non-entry file accepted")
	}
}

// An entry whose header claims far more than the frame bound is a
// clean miss, counted as corrupt (pdfd_store_corrupt_total), and the
// read allocates nothing near the claimed length.
func TestStoreHugeLengthClaim(t *testing.T) {
	dir := t.TempDir()
	key := testKey(3)
	entry := append([]byte(magic), 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 'a', 'b', 'c', 'd')
	if err := os.WriteFile(filepath.Join(dir, fileFromKey(key)), entry, 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, Config{Dir: dir})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, ok := s.Get(key)
	runtime.ReadMemStats(&after)
	if ok {
		t.Fatal("entry claiming 0x7fffffff bytes returned a hit")
	}
	if c := s.MetricsRef().Corrupt.Load(); c != 1 {
		t.Errorf("corrupt count = %d, want 1", c)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= durable.MaxPayload {
		t.Errorf("Get allocated %d bytes, want under the %d-byte frame bound", d, durable.MaxPayload)
	}
}

// The entries under testdata were written by an earlier writeEntry:
// each still reads back, and writing its payload again yields the same
// bytes, so the on-disk format is unchanged.
func TestStoreFixtureRoundTrip(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*"+suffix))
	if err != nil || len(files) == 0 {
		t.Fatalf("no fixtures: %v", err)
	}
	dir := t.TempDir()
	for _, f := range files {
		want, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(f)), want, 0o644); err != nil {
			t.Fatal(err)
		}
		key, ok := keyFromFile(filepath.Base(f))
		if !ok {
			t.Fatalf("fixture %s is not an entry file name", f)
		}
		s := mustOpen(t, Config{Dir: dir})
		payload, ok := s.Get(key)
		if !ok {
			t.Fatalf("fixture %s did not read back", f)
		}
		out := filepath.Join(t.TempDir(), "entry")
		if err := writeEntry(out, payload); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(out); err != nil || !bytes.Equal(got, want) {
			t.Errorf("rewriting %s: got %q, %v; want %q", f, got, err, want)
		}
	}
}
