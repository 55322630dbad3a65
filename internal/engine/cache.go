package engine

import (
	"bufio"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sync"

	"repro/internal/circuit"
	"repro/internal/robust"
)

// lru is a size-bounded, least-recently-used map from string keys to
// values. Stored values are treated as immutable, so all values ever
// put under one key must be interchangeable: a Put on a resident key
// keeps the first value (first insert wins) and returns it.
type lru[V any] struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used
	m   map[string]*list.Element
}

type lruEntry[V any] struct {
	key string
	val V
}

func newLRU[V any](capacity int) *lru[V] {
	return &lru[V]{cap: capacity, ll: list.New(), m: make(map[string]*list.Element)}
}

func (c *lru[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// Put stores val under key unless key is resident, evicting the least
// recently used entries past the capacity, and returns the value now
// stored under key.
func (c *lru[V]) Put(key string, val V) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*lruEntry[V]).val
	}
	c.m[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: val})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.m, last.Value.(*lruEntry[V]).key)
	}
	return val
}

func (c *lru[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// CircuitDigest hashes the complete circuit structure: gate functions,
// wiring and terminal lists. Two circuits with equal digests run every
// engine procedure identically.
func CircuitDigest(c *circuit.Circuit) string {
	h := sha256.New()
	fmt.Fprintf(h, "circuit %s lines=%d gates=%d\n", c.Name, len(c.Lines), len(c.Gates))
	for i := range c.Gates {
		g := &c.Gates[i]
		fmt.Fprintf(h, "g%d %d %s %d", i, g.Type, g.Name, g.Out)
		for _, in := range g.In {
			fmt.Fprintf(h, " %d", in)
		}
		io.WriteString(h, "\n")
	}
	fmt.Fprintf(h, "pi %v\npo %v\n", c.PIs, c.POs)
	return hex.EncodeToString(h.Sum(nil))
}

// faultSetDigest hashes the targeted fault sets (path line IDs and
// transition directions; the A(p) alternatives derive deterministically
// from the circuit and are not hashed).
func faultSetDigest(sets ...[]robust.FaultConditions) string {
	h := sha256.New()
	for s, set := range sets {
		fmt.Fprintf(h, "set%d n=%d\n", s, len(set))
		for i := range set {
			f := &set[i].Fault
			fmt.Fprintf(h, "%d %v\n", f.Dir, f.Path)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// SpecDigest hashes every Spec field that selects a job's computation
// — the named circuit, the config parameters and the input test list —
// into a stable hex digest. Execution knobs (TimeoutMS, NoCache,
// tenant, priority) cannot change a result and are excluded.
//
// The engine's cache key and the coordinator's ring placement both use
// it, so a resubmitted spec routes to the backend holding its result.
// The spec is normalized first (an explicit default heuristic digests
// like an omitted one); an invalid spec is digested as given. The
// "spec/v1" format is pinned by a golden test: changing it reshuffles
// the ring and orphans cached results, so bump it deliberately.
func SpecDigest(s Spec) string {
	if ns, err := s.normalized(); err == nil {
		s = ns
	}
	h := sha256.New()
	// Buffered: the hash has no WriteString, and io.WriteString on it
	// would copy every test to the heap.
	w := bufio.NewWriter(h)
	fmt.Fprintf(w, "spec/v1 circuit=%s kind=%s np=%d np0=%d seed=%d heur=%s bnb=%t collapse=%t\n",
		s.Circuit, s.Kind, s.NP, s.NP0, s.Seed, s.Heuristic, s.UseBnB, s.Collapse)
	for _, t := range s.Tests {
		io.WriteString(w, t)
		io.WriteString(w, "\n")
	}
	w.Flush() // a hash's Write never fails
	return hex.EncodeToString(h.Sum(nil))
}

// resultVersion leads every cache key (hex: store keys are [0-9a-f/]).
// Bump it whenever a change alters the result of an unchanged (circuit,
// spec), as re-recording TestCrossVersionGoldens does, so results an
// older build stored are never addressed again.
const resultVersion = "03"

// cacheKey is a result's identity. The fault sets derive
// deterministically from the circuit and the spec, so the key is known
// before prepare and a hit skips it.
func cacheKey(circuitHash, specHash string) string {
	return resultVersion + "/" + circuitHash[:16] + "/" + specHash[:16]
}
