// Package cluster scales the fleet decision service horizontally: a
// consistent-hash ring maps every device onto one owning clrserved
// node, any node accepts any device's request and forwards (or
// redirects) it to the owner, and membership changes move only the
// departed node's devices — each carried to its new owner as a state
// bundle whose decision journal is replayed through a fresh manager,
// so the sequence-number exactly-once guarantee and the byte-identical
// decision contract survive the move.
//
// The hashing discipline is the same FNV-1a the in-process registry
// uses for its shards, so "device → shard" and "device → node" are two
// levels of one scheme. Virtual nodes smooth the load: each member
// projects VNodes points onto the ring, and a device belongs to the
// first point clockwise from its own hash.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVNodes is the virtual-node count per member when the caller
// does not choose one: enough that a 3-node ring balances within a few
// percent, cheap enough that ring rebuilds are microseconds.
const DefaultVNodes = 64

// ringPoint is one virtual node's position.
type ringPoint struct {
	hash uint32
	node string
}

// Ring is an immutable consistent-hash ring over a set of node IDs.
// Build one with NewRing; rebuild on every membership change (the ring
// is cheap and immutability keeps readers lock-free).
type Ring struct {
	vnodes  int
	points  []ringPoint
	members []string // sorted
}

// NewRing builds a ring over the members with the given virtual-node
// count (<= 0 selects DefaultVNodes). Member order does not matter:
// the ring is a pure function of the member set and vnodes, so every
// node (and every ring-aware client) derives the identical ownership
// map from the identical membership view.
func NewRing(members []string, vnodes int) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one member")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{
		vnodes:  vnodes,
		members: append([]string(nil), members...),
		points:  make([]ringPoint, 0, len(members)*vnodes),
	}
	sort.Strings(r.members)
	for i := 1; i < len(r.members); i++ {
		if r.members[i] == r.members[i-1] {
			return nil, fmt.Errorf("cluster: duplicate ring member %q", r.members[i])
		}
	}
	for _, m := range r.members {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hash32(fmt.Sprintf("%s#%d", m, v)), node: m})
		}
	}
	// Ties between distinct members' virtual nodes break on the member
	// name, keeping ownership deterministic even on hash collisions.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// hash32 is the ring's FNV-1a — the same discipline Registry.shardFor
// applies one level down.
func hash32(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}

// Members returns the ring's members, sorted.
func (r *Ring) Members() []string { return append([]string(nil), r.members...) }

// Owner returns the member owning the key: the first virtual node
// clockwise from the key's hash.
func (r *Ring) Owner(key string) string {
	return r.points[r.search(hash32(key))].node
}

// search finds the index of the first ring point with hash >= h,
// wrapping past the top of the hash space.
func (r *Ring) search(h uint32) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Version fingerprints the ring: the FNV-1a of the sorted member list
// and the vnode count. Two nodes (or a node and a client) with equal
// versions derive identical ownership; the clr_cluster_ring_version
// gauge exports it so an operator can spot a split view at a glance.
func (r *Ring) Version() uint32 {
	h := fnv.New32a()
	for _, m := range r.members {
		h.Write([]byte(m))
		h.Write([]byte{0})
	}
	fmt.Fprintf(h, "#%d", r.vnodes)
	return h.Sum32()
}
