package engine

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sync"

	"repro/internal/circuit"
	"repro/internal/robust"
)

// cache is a size-bounded LRU of completed results. Stored results are
// treated as immutable.
type cache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used
	m   map[string]*list.Element
}

type cacheEntry struct {
	key string
	res *Result
}

func newCache(capacity int) *cache {
	return &cache{cap: capacity, ll: list.New(), m: make(map[string]*list.Element)}
}

func (c *cache) Get(key string) (*Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

func (c *cache) Put(key string, res *Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).res = res
		return
	}
	c.m[key] = c.ll.PushFront(&cacheEntry{key: key, res: res})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.m, last.Value.(*cacheEntry).key)
	}
}

func (c *cache) Len() int {
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
// — the named circuit plus the config parameters and the input test
// list — into a stable hex digest. TimeoutMS and NoCache are
// deliberately excluded: they are execution knobs that must not change
// results, so runs differing only in them share digests.
//
// The digest is used twice, and the two uses must agree: the engine
// embeds it in its result cache key, and the cluster coordinator
// hashes it onto the backend ring — so resubmitting an identical spec
// routes to the backend that already holds the cached result. The
// spec is normalized first (defaults filled), so a spec that spells
// the default heuristic explicitly digests identically to one that
// omits it; a spec that fails validation is digested as given. The
// format is versioned ("spec/v1") and pinned by a golden test:
// changing it reshuffles every ring assignment and orphans cached
// results across a rolling upgrade, so bump it deliberately.
func SpecDigest(s Spec) string {
	if ns, err := s.normalized(); err == nil {
		s = ns
	}
	h := sha256.New()
	fmt.Fprintf(h, "spec/v1 circuit=%s kind=%s np=%d np0=%d seed=%d heur=%s bnb=%t collapse=%t\n",
		s.Circuit, s.Kind, s.NP, s.NP0, s.Seed, s.Heuristic, s.UseBnB, s.Collapse)
	for _, t := range s.Tests {
		fmt.Fprintln(h, t)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cacheKey combines the three identity digests of a prepared job: the
// circuit structure hash, the SpecDigest routing key, and the
// enumerated fault-set digest.
func cacheKey(circuitHash, specHash, faultHash string) string {
	return circuitHash[:16] + "/" + specHash[:16] + "/" + faultHash[:16]
}
