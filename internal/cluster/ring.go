package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// DefaultVNodes is the virtual-node count per backend on the
// coordinator's ring: enough points that a 3–16 node fleet balances
// within a few percent. It is a constant, so every coordinator in
// front of one fleet places keys alike.
const DefaultVNodes = 64

// Ring is a consistent-hash ring with virtual nodes. Keys (SpecDigest
// strings) map to the first virtual node clockwise from the key's
// hash, and Owners walks on from there: the key's owner chain. A
// caller that skips a node in the chain moves only the keys in that
// node's arcs, to their next distinct node; the other keys keep their
// owner — the property that keeps result-cache affinity intact across
// a backend failure, and gives the node exactly its keys back when it
// stops being skipped.
//
// Placement is fully deterministic: virtual-node positions hash only
// the node name and index, so two coordinators configured with the
// same fleet agree on every assignment.
//
// A Ring is built with Add and read-only after that, so concurrent
// reads are safe.
type Ring struct {
	vnodes int
	points []ringPoint // sorted by (hash, node)
	nodes  map[string]bool
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing returns an empty ring; vnodes <= 0 uses DefaultVNodes.
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Ring{vnodes: vnodes, nodes: make(map[string]bool)}
}

// ringHash positions a string on the ring: the first 8 bytes of its
// SHA-256, matching the digest family the keys themselves come from.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Add inserts node's virtual points; adding a present node is a no-op.
func (r *Ring) Add(node string) {
	if r.nodes[node] {
		return
	}
	r.nodes[node] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{hash: ringHash(node + "#" + strconv.Itoa(i)), node: node})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node // total order: hash collisions stay deterministic
	})
}

// Len returns the number of (real) nodes on the ring.
func (r *Ring) Len() int { return len(r.nodes) }

// Owner returns the node owning key: the first virtual point at or
// clockwise past the key's hash. An empty ring returns "".
func (r *Ring) Owner(key string) string {
	owners := r.Owners(key, 1)
	if len(owners) == 0 {
		return ""
	}
	return owners[0]
}

// Owners returns up to n distinct nodes in ring order starting at
// key's owner — the failover preference list: if the owner cannot
// take the job, the next distinct node clockwise inherits it, and so
// on. Fewer than n nodes on the ring returns them all.
func (r *Ring) Owners(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}
