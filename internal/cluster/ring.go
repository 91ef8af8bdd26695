// Package cluster turns edbpd into a coordinator + sharded worker fleet.
//
// The coordinator owns a consistent-hash ring over the registered workers
// and routes every run (and every entry of a grid) to the worker that owns
// its config hash. Because the routing key is the same sha256 config hash
// that keys each worker's local result cache and experiment store, the
// fleet's caches and stores form a distributed cache with exclusive
// shards: a config is simulated on exactly one node, and re-asking the
// fleet for it lands on the node that already holds the answer.
//
// Membership is push-based: workers join with POST /cluster/join, renew
// with periodic heartbeats, and deregister with /cluster/leave when they
// drain. A worker that stops heartbeating past the liveness timeout — or
// that fails a dispatch for a reason other than the run itself — is
// marked dead and excluded from the ring; runs in flight on it are
// retried on the next owner (retry-with-exclusion). Each dispatched run
// is one POST /run: the worker queues it and answers with one JSON body,
// the Result or the error. A worker that dies mid-run shows up as a
// failed or cut answer, and a grid's progress is read by polling it.
package cluster

import (
	"fmt"
	"sort"
)

// fnv-1a, inlined so ring placement is dependency-free and stable across
// architectures.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func hash64(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	// Murmur3-style avalanche: raw FNV clusters badly on short,
	// near-identical strings ("w1#0", "w1#1", …), which would skew ring
	// shares by an order of magnitude.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// ringPoint is one virtual node on the ring.
type ringPoint struct {
	hash uint64
	id   string
}

// Ring is an immutable consistent-hash ring. Build a new one whenever the
// member set changes; lookups are lock-free.
type Ring struct {
	points []ringPoint
	ids    []string // distinct member ids, sorted
}

// DefaultVnodes is the virtual-node count per member: enough that three
// workers split a grid within a few percent of evenly, cheap enough that
// rebuilding on every membership change is free.
const DefaultVnodes = 64

// BuildRing places every id on the ring vnodes times. ids may be in any
// order; the resulting ring depends only on the set.
func BuildRing(ids []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	sorted := append([]string(nil), ids...)
	sort.Strings(sorted)
	r := &Ring{ids: sorted, points: make([]ringPoint, 0, len(sorted)*vnodes)}
	for _, id := range sorted {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", id, v)), id: id})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].id < r.points[j].id
	})
	return r
}

// Len returns the number of distinct members on the ring.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	return len(r.ids)
}

// Members returns the distinct member ids, sorted.
func (r *Ring) Members() []string {
	if r == nil {
		return nil
	}
	return append([]string(nil), r.ids...)
}

// Owner returns the member owning key: the first ring point clockwise of
// the key's hash whose id skip does not reject. A nil skip accepts every
// member. ok is false when the ring is empty or skip rejects everyone.
func (r *Ring) Owner(key string, skip func(id string) bool) (string, bool) {
	if r == nil || len(r.points) == 0 {
		return "", false
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[string]bool, len(r.ids))
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.id] {
			continue
		}
		seen[p.id] = true
		if skip == nil || !skip(p.id) {
			return p.id, true
		}
		if len(seen) == len(r.ids) {
			break
		}
	}
	return "", false
}
