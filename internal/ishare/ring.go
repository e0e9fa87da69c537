package ishare

import (
	"fmt"
	"sort"
)

// DefaultVnodes is the number of virtual nodes each peer projects onto the
// consistent-hash ring when the caller does not choose. 64 keeps the
// per-peer load within a few percent of fair share for realistic fleet
// sizes while the ring stays small enough to rebuild instantly.
const DefaultVnodes = 64

// DefaultReplicas is the number of successor gateways each registry entry
// is replicated to beyond its owner (K = 2: an entry survives two
// simultaneous gateway losses).
const DefaultReplicas = 2

// Peer identifies one federation gateway: a stable operator-chosen ID (the
// hash input, so it must not change across restarts) and the TCP address
// the peer serves the iShare protocol on.
type Peer struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
}

// ringPoint is one virtual node: a position on the 64-bit hash circle and
// the peer it belongs to.
type ringPoint struct {
	hash uint64
	id   string
}

// Ring is a consistent-hash ring mapping machine names to federation
// gateways. Each peer is projected onto the circle at Vnodes pseudo-random
// points — one per equal-width stratum of the circle, which spreads a
// peer's points far more evenly than fully random placement — and a key is
// owned by the peer of the point NEAREST to the key's hash (either
// direction). Both choices cut load variance roughly in half versus the
// textbook successor-of-random-points rule, which is what lets 64 vnodes
// keep every peer within ±15% of fair share on the tested fleet shapes;
// raise Vnodes for tighter balance on large fleets.
//
// The consistent-hashing contract still holds exactly: a joining peer can
// only insert points, so a key's nearest point either stays put or becomes
// the joiner's (keys move only TO the joiner); a leaving peer only removes
// points, so only the keys it owned change hands.
//
// Ring is not safe for concurrent mutation; build it up front (federation
// membership is static per process) or guard it externally.
type Ring struct {
	vnodes int
	peers  map[string]Peer
	points []ringPoint // sorted by (hash, id)
}

// NewRing returns an empty ring with the given virtual-node count per peer
// (<= 0 uses DefaultVnodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	return &Ring{vnodes: vnodes, peers: make(map[string]Peer)}
}

// Add places a peer on the ring (or refreshes its address if the ID is
// already present — the hash points depend only on the ID, so an address
// change moves no keys).
func (r *Ring) Add(p Peer) error {
	if p.ID == "" || p.Addr == "" {
		return fmt.Errorf("ishare: ring peer needs id and address")
	}
	if _, ok := r.peers[p.ID]; ok {
		r.peers[p.ID] = p
		return nil
	}
	r.peers[p.ID] = p
	stride := ^uint64(0)/uint64(r.vnodes) + 1
	if stride == 0 { // vnodes == 1: a single stratum spanning the circle
		stride = ^uint64(0)
	}
	for i := 0; i < r.vnodes; i++ {
		jitter := ringHash(fmt.Sprintf("%s#%d", p.ID, i)) % stride
		r.points = append(r.points, ringPoint{hash: uint64(i)*stride + jitter, id: p.ID})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].id < r.points[j].id
	})
	return nil
}

// Remove takes a peer off the ring; its arcs fall to the clockwise
// successors. Removing an unknown ID is a no-op.
func (r *Ring) Remove(id string) {
	if _, ok := r.peers[id]; !ok {
		return
	}
	delete(r.peers, id)
	kept := r.points[:0]
	for _, pt := range r.points {
		if pt.id != id {
			kept = append(kept, pt)
		}
	}
	r.points = kept
}

// members lists the ring members sorted by ID.
func (r *Ring) members() []Peer {
	out := make([]Peer, 0, len(r.peers))
	for _, p := range r.peers {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Owner returns the peer owning the key (false on an empty ring).
func (r *Ring) Owner(key string) (Peer, bool) {
	var buf [1]Peer
	s := r.appendSuccessors(buf[:0], key, 1)
	if len(s) == 0 {
		return Peer{}, false
	}
	return s[0], true
}

// Successors returns up to n distinct peers for the key, ordered by the
// circular distance of their nearest point to the key's hash (owner first).
// This is the replica set — and the failover order — for the key: a
// request for the key's machine is routed to these peers in this order.
func (r *Ring) Successors(key string, n int) []Peer {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	return r.appendSuccessors(make([]Peer, 0, min(n, len(r.peers))), key, n)
}

// appendSuccessors appends Successors(key, n) to dst, so a caller with a
// stack buffer walks the replica set without allocating.
func (r *Ring) appendSuccessors(dst []Peer, key string, n int) []Peer {
	m := len(r.points)
	if m == 0 || n <= 0 {
		return dst
	}
	n = min(n, len(r.peers))
	base := len(dst)
	h := ringHash(key)
	idx := sort.Search(m, func(i int) bool { return r.points[i].hash >= h }) % m
	// Walk outward from the key in both directions, always consuming the
	// closer of the next clockwise and next counter-clockwise point.
	// Distances use mod-2^64 arithmetic, so wraparound is free.
	si, pi := idx, (idx-1+m)%m
	for steps := 0; steps < m && len(dst)-base < n; steps++ {
		sp, pp := r.points[si], r.points[pi]
		var pick ringPoint
		if h-pp.hash < sp.hash-h {
			pick = pp
			pi = (pi - 1 + m) % m
		} else {
			pick = sp
			si = (si + 1) % m
		}
		// Dedup against the result so far: n is the replica fanout (a few
		// entries), so a linear scan beats the map this used to allocate
		// per call — Successors runs per routed request and per entry per
		// anti-entropy round, where the map was the top allocation site.
		dup := false
		for i := range dst[base:] {
			if dst[base+i].ID == pick.id {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		dst = append(dst, r.peers[pick.id])
	}
	return dst
}

// ringHash maps a string onto the hash circle: FNV-1a 64 followed by a
// SplitMix64 finalizer. FNV alone clusters short suffix-numbered names
// (peer vnode labels, machine names); the finalizer's avalanche spreads
// them, which is what the ±15% balance guarantee rests on.
func ringHash(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
