package engine

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/testio"
)

// The durable result store (internal/store) sits behind the in-memory
// LRU: execute writes every cacheable result through to disk and reads
// through on a memory miss, so a restarted process (same -store dir)
// serves cache hits for everything it computed before dying. The
// store's payload is the Result's canonical JSON — the same bytes the
// determinism golden tests pin — and a Result holds nothing else, so a
// restored result is byte-identical to the originally computed one.

// ErrNoStore is returned by InstallResult when the engine has no
// durable store configured.
var ErrNoStore = errors.New("engine: no durable store configured")

// storeGet is the read-through path: on an in-memory miss, load the
// result's JSON from the durable store, check that its tests parse at
// the loaded circuit's input width (piCount), and promote it into the
// memory LRU. Any decode failure degrades to a miss.
func (e *Engine) storeGet(key string, piCount int) (*Result, bool) {
	st := e.cfg.Store
	if st == nil {
		return nil, false
	}
	payload, ok := st.Get(key)
	if !ok {
		return nil, false
	}
	res, err := decodeStoredResult(key, payload, piCount)
	if err != nil {
		// The frame CRC passed but the payload does not decode to a
		// result for this key — e.g. a store directory shared across
		// incompatible versions. Treat as a miss; the slot will be
		// overwritten by this job's fresh result.
		e.log.Warn("store payload rejected", "key", key, "err", err)
		return nil, false
	}
	e.cache.Put(key, res)
	return res, true
}

// storePut is the write-through path; failures degrade to the store's
// own error counter (the engine prefers availability over durability,
// same as journal appends).
func (e *Engine) storePut(key string, res *Result) {
	st := e.cfg.Store
	if st == nil {
		return
	}
	payload, err := json.Marshal(res)
	if err != nil {
		return
	}
	if err := st.Put(key, payload); err != nil {
		e.log.Warn("store write-through failed", "key", key, "err", err)
	}
}

// InstallResult stores an externally computed result's JSON under key
// — the cluster coordinator's replication path (PUT /v1/cache/{key}).
// The payload must decode to a Result whose CacheKey matches key; it
// lands in the durable store only, and is promoted into the memory
// LRU (once its tests parse at the circuit's width) the first time a
// job for the same key reads through. A key the store already holds is
// answered as installed without writing it again: the payload is a
// function of the key.
func (e *Engine) InstallResult(key string, payload []byte) error {
	st := e.cfg.Store
	if st == nil {
		return ErrNoStore
	}
	var res Result
	if err := json.Unmarshal(payload, &res); err != nil {
		return fmt.Errorf("engine: install: bad result payload: %w", err)
	}
	if res.CacheKey != key {
		return fmt.Errorf("engine: install: payload cache_key %q does not match %q", res.CacheKey, key)
	}
	if st.Has(key) {
		return nil
	}
	return st.Put(key, payload)
}

// CachedResult returns the JSON of the result cached under key, from
// the memory LRU or the durable store — the read-repair source of
// GET /v1/cache/{key}.
func (e *Engine) CachedResult(key string) ([]byte, bool) {
	if res, ok := e.cache.Get(key); ok {
		payload, err := json.Marshal(res)
		if err == nil {
			return payload, true
		}
	}
	if st := e.cfg.Store; st != nil {
		return st.Get(key)
	}
	return nil, false
}

// decodeStoredResult unmarshals a stored payload and checks that its
// tests parse at piCount inputs; the parsed tests are discarded.
func decodeStoredResult(key string, payload []byte, piCount int) (*Result, error) {
	res := &Result{}
	if err := json.Unmarshal(payload, res); err != nil {
		return nil, err
	}
	if res.CacheKey != key {
		return nil, fmt.Errorf("cache_key %q does not match %q", res.CacheKey, key)
	}
	if _, _, err := testio.ParseTests(res.Tests, piCount); err != nil {
		return nil, fmt.Errorf("stored tests: %w", err)
	}
	return res, nil
}
