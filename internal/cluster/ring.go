// Package cluster is the layer above one faasd process: a front-end
// router that consistent-hashes requests across N worker processes, a
// telemetry-driven autoscaler that grows and shrinks the workers'
// per-backend keep-warm pools, and a supervisor that spawns and
// restarts worker processes. Together they extend the paper's §7
// scalability argument from simulation to the live serving path: one
// node hosting many warm instances is exactly where ColorGuard's slot
// density (~218k slots per process) beats process-per-instance
// isolation, and the keep-warm pools are the lever that realizes it.
//
// The pieces compose but do not require each other: the Router works
// over any set of worker base URLs (in-process test servers or
// supervised child processes), the Autoscaler reads any Router's
// worker set, and the Supervisor can drive any registration callback.
package cluster

import (
	"fmt"
	"sort"
	"sync"
)

// fnv1a hashes s with 64-bit FNV-1a and a murmur-style finalizer —
// stable across processes and Go versions, so a router restart maps
// keys identically. The finalizer matters: raw FNV of short strings
// with shared prefixes ("w0#12", "w0#13") clusters on the ring badly
// enough to skew members 1.8x from the mean.
func fnv1a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// ringPoint is one virtual node: a member's i-th position on the ring.
type ringPoint struct {
	hash   uint64
	member string
}

// Ring is a consistent-hash ring with virtual nodes. Keys map to the
// first point clockwise from their hash; adding a member moves only the
// keys whose arc that member's points cover (about 1/(n+1) of them),
// which is what keeps worker-local keep-warm pools valid across
// topology changes.
type Ring struct {
	mu      sync.RWMutex
	vnodes  int
	points  []ringPoint // sorted by hash
	members map[string]struct{}
}

// NewRing returns an empty ring with the given virtual-node count per
// member (0 selects the default, 64 — enough to balance within ~15%).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 64
	}
	return &Ring{vnodes: vnodes, members: make(map[string]struct{})}
}

// Add inserts a member's virtual nodes. Adding an existing member is a
// no-op.
func (r *Ring) Add(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[member]; ok {
		return
	}
	r.members[member] = struct{}{}
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{
			hash:   fnv1a(fmt.Sprintf("%s#%d", member, i)),
			member: member,
		})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Size returns the member count.
func (r *Ring) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}

// Lookup returns up to n distinct members for key, in ring order
// starting at the key's successor point: the first entry is the key's
// home (affinity — where its warm instances accumulate), the rest are
// the spread candidates a loaded router may divert to and the failover
// order when workers die.
func (r *Ring) Lookup(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	h := fnv1a(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	for scanned := 0; scanned < len(r.points) && len(out) < n; scanned++ {
		p := r.points[(i+scanned)%len(r.points)]
		if _, dup := seen[p.member]; dup {
			continue
		}
		seen[p.member] = struct{}{}
		out = append(out, p.member)
	}
	return out
}
