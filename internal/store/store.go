// Package store is the digest-addressed on-disk result store the
// engine's in-memory LRU spills to (ROADMAP item 5): one file per
// cache key, installed with durable.WriteFile and holding a magic
// header followed by one internal/durable frame, so a torn or
// corrupted write is detected on load and degrades to a clean miss —
// never a partial read. The store is bounded (entry count and total
// bytes) with LRU eviction, and safe for concurrent use.
//
// Keys are the engine's composite cache keys
// (03/<circuit16>/<spec16>: result version, circuit and spec digest
// hex separated by '/'); the slash is mapped to '-' for the file name,
// which is reversible because the digest alphabet is hex.
package store

import (
	"container/list"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/durable"
	"repro/internal/obs"
)

// An entry file is magic followed by one durable frame; anything
// shorter, longer, or checksum-mismatched is treated as corrupt.
const (
	magic      = "pdfstor1"
	headerSize = len(magic) + durable.HeaderSize

	// suffix names complete entries.
	suffix = ".res"

	// DefaultMaxEntries bounds the store when Config.MaxEntries is 0.
	DefaultMaxEntries = 4096
	// DefaultMaxBytes bounds the store when Config.MaxBytes is 0.
	DefaultMaxBytes = 256 << 20
)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// Config configures Open.
type Config struct {
	// Dir is the store directory; created if missing.
	Dir string
	// MaxEntries bounds the number of entries (0 = DefaultMaxEntries,
	// negative = unbounded).
	MaxEntries int
	// MaxBytes bounds the total payload bytes (0 = DefaultMaxBytes,
	// negative = unbounded).
	MaxBytes int64
	// Logger receives corruption and eviction events; nil = silent.
	Logger *slog.Logger
}

// Metrics are the store's monotonic counters, exported by the engine
// registry as the pdfd_store_* family.
type Metrics struct {
	Hits      atomic.Int64
	Misses    atomic.Int64
	Puts      atomic.Int64
	PutErrors atomic.Int64
	Evictions atomic.Int64
	Corrupt   atomic.Int64
}

// Store is a bounded, digest-addressed on-disk result store.
type Store struct {
	cfg     Config
	logger  *slog.Logger
	metrics Metrics

	mu      sync.Mutex
	closed  bool
	order   *list.List               // front = most recently used
	entries map[string]*list.Element // key -> element whose Value is *entry
	bytes   int64                    // sum of payload sizes

	entryCount atomic.Int64 // mirrors len(entries) for lock-free gauges
	byteCount  atomic.Int64 // mirrors bytes for lock-free gauges
}

type entry struct {
	key  string
	size int64
}

// Open scans dir (creating it if needed), indexes every complete
// entry ordered by modification time (oldest first becomes the LRU
// tail), removes leftover temporary files from interrupted writes,
// and returns the store. Corrupt entries are deleted lazily on Get,
// not at Open, so startup stays O(readdir).
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, errors.New("store: Config.Dir is required")
	}
	if cfg.MaxEntries == 0 {
		cfg.MaxEntries = DefaultMaxEntries
	}
	if cfg.MaxBytes == 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	logger := cfg.Logger
	if logger == nil {
		logger = obs.NopLogger()
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	s := &Store{
		cfg:     cfg,
		logger:  logger,
		order:   list.New(),
		entries: make(map[string]*list.Element),
	}
	if err := s.scan(); err != nil {
		return nil, err
	}
	s.evictLocked()
	s.logger.Info("store opened", "dir", cfg.Dir, "entries", s.order.Len(), "bytes", s.bytes)
	return s, nil
}

// scan indexes the directory. Called before the store is shared, so
// no locking is needed.
func (s *Store) scan() error {
	dirents, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		return fmt.Errorf("store: scan: %w", err)
	}
	type found struct {
		entry
		mtime int64
	}
	var all []found
	for _, de := range dirents {
		name := de.Name()
		if strings.HasSuffix(name, durable.TmpSuffix) {
			// A crash mid-write leaves a .tmp behind; it was never
			// renamed into place, so it holds no committed data.
			os.Remove(filepath.Join(s.cfg.Dir, name))
			continue
		}
		key, ok := keyFromFile(name)
		if !ok {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		size := max(info.Size()-int64(headerSize), 0)
		all = append(all, found{entry{key: key, size: size}, info.ModTime().UnixNano()})
	}
	// Oldest first so the most recently touched entry ends up at the
	// front of the LRU list.
	sort.Slice(all, func(i, j int) bool {
		if all[i].mtime != all[j].mtime {
			return all[i].mtime < all[j].mtime
		}
		return all[i].key < all[j].key
	})
	for _, f := range all {
		e := f.entry
		s.entries[e.key] = s.order.PushFront(&entry{key: e.key, size: e.size})
		s.bytes += e.size
	}
	s.entryCount.Store(int64(len(s.entries)))
	s.byteCount.Store(s.bytes)
	return nil
}

// Get returns the payload stored under key, or ok=false on a miss.
// A torn or corrupted file is deleted and reported as a clean miss.
func (s *Store) Get(key string) ([]byte, bool) {
	if !validKey(key) {
		s.metrics.Misses.Add(1)
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.metrics.Misses.Add(1)
		return nil, false
	}
	el, ok := s.entries[key]
	if !ok {
		s.metrics.Misses.Add(1)
		return nil, false
	}
	path := s.path(key)
	payload, err := readEntry(path)
	if err != nil {
		// Torn write, bit rot, or manual tampering: drop the entry so
		// the next Get is an honest miss and the slot is reusable.
		s.metrics.Corrupt.Add(1)
		s.metrics.Misses.Add(1)
		s.logger.Warn("store entry corrupt, removing", "key", key, "err", err)
		s.removeLocked(el)
		return nil, false
	}
	s.order.MoveToFront(el)
	s.metrics.Hits.Add(1)
	return payload, true
}

// Has reports whether the store holds an entry under key. It looks at
// the index only: it reads no file and moves no counter or LRU
// position.
func (s *Store) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[key]
	return ok && !s.closed
}

// Put durably stores payload under key with durable.WriteFile, so a
// crash at any point leaves either the old entry or the new one,
// never a torn file.
func (s *Store) Put(key string, payload []byte) error {
	if !validKey(key) {
		s.metrics.PutErrors.Add(1)
		return fmt.Errorf("store: invalid key %q", key)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.metrics.PutErrors.Add(1)
		return ErrClosed
	}
	path := s.path(key)
	if err := writeEntry(path, payload); err != nil {
		s.metrics.PutErrors.Add(1)
		s.logger.Warn("store put failed", "key", key, "err", err)
		return err
	}
	size := int64(len(payload))
	if el, ok := s.entries[key]; ok {
		s.bytes += size - el.Value.(*entry).size
		el.Value.(*entry).size = size
		s.order.MoveToFront(el)
	} else {
		s.entries[key] = s.order.PushFront(&entry{key: key, size: size})
		s.bytes += size
	}
	s.metrics.Puts.Add(1)
	s.evictLocked()
	s.entryCount.Store(int64(len(s.entries)))
	s.byteCount.Store(s.bytes)
	return nil
}

// Len returns the number of entries.
func (s *Store) Len() int { return int(s.entryCount.Load()) }

// Bytes returns the total payload bytes stored.
func (s *Store) Bytes() int64 { return s.byteCount.Load() }

// MetricsRef exposes the counters for registry wiring.
func (s *Store) MetricsRef() *Metrics { return &s.metrics }

// Close marks the store closed. There is no background state to stop;
// subsequent Puts fail and Gets miss.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

// evictLocked removes LRU-tail entries until both bounds hold.
func (s *Store) evictLocked() {
	for {
		over := (s.cfg.MaxEntries > 0 && s.order.Len() > s.cfg.MaxEntries) ||
			(s.cfg.MaxBytes > 0 && s.bytes > s.cfg.MaxBytes)
		if !over {
			return
		}
		el := s.order.Back()
		if el == nil {
			return
		}
		s.metrics.Evictions.Add(1)
		s.logger.Debug("store evict", "key", el.Value.(*entry).key)
		s.removeLocked(el)
	}
}

// removeLocked drops an entry from the index and the disk.
func (s *Store) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	s.order.Remove(el)
	delete(s.entries, e.key)
	s.bytes -= e.size
	os.Remove(s.path(e.key))
	s.entryCount.Store(int64(len(s.entries)))
	s.byteCount.Store(s.bytes)
}

func (s *Store) path(key string) string {
	return filepath.Join(s.cfg.Dir, fileFromKey(key))
}

// writeEntry performs the atomic durable write of one framed entry.
func writeEntry(path string, payload []byte) error {
	hdr, err := durable.AppendHeader([]byte(magic), payload)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return durable.WriteFile(path, hdr, payload)
}

// readEntry loads and verifies one framed entry. Any framing or
// checksum violation returns an error (the caller treats it as
// corruption); a short file — the torn-write case — is included.
func readEntry(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var m [len(magic)]byte
	if _, err := io.ReadFull(f, m[:]); err != nil || string(m[:]) != magic {
		return nil, fmt.Errorf("bad magic %q (%v)", m[:], err)
	}
	payload, err := durable.ReadFrame(f)
	if err != nil {
		return nil, err
	}
	// A trailing byte means the file is not the frame we wrote.
	var one [1]byte
	if _, err := f.Read(one[:]); err != io.EOF {
		return nil, errors.New("trailing bytes after frame")
	}
	return payload, nil
}

// Cache keys are hex digests joined by '/'; the file name maps '/'
// to '-' (reversible: hex has no '-').

func validKey(key string) bool {
	if key == "" {
		return false
	}
	for _, r := range key {
		switch {
		case r >= '0' && r <= '9', r >= 'a' && r <= 'f', r == '/':
		default:
			return false
		}
	}
	return true
}

func fileFromKey(key string) string {
	return strings.ReplaceAll(key, "/", "-") + suffix
}

func keyFromFile(name string) (string, bool) {
	base, ok := strings.CutSuffix(name, suffix)
	if !ok {
		return "", false
	}
	key := strings.ReplaceAll(base, "-", "/")
	if !validKey(key) {
		return "", false
	}
	return key, true
}
