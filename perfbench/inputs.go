package main

import (
	"math/rand"
	"strconv"
	"sync"

	"structura/internal/gen"
	"structura/internal/graph"
	"structura/internal/server"
	"structura/internal/stats"
)

// avgDegree is the mean degree of the served Erdős–Rényi topology.
const avgDegree = 10

// dest is the node the route labels point toward: serve's default -dest.
const dest = 0

// topology is the seeded G(n, p) every workload serves, with p chosen for
// average degree avgDegree.
func topology(seed int64, n int) *graph.Graph {
	return gen.SparseErdosRenyi(stats.NewRand(seed), n, avgDegree/float64(n-1))
}

// ---- the read mix ----

// Read kinds, in server.LoadGen's mix proportions.
const (
	kindRoute  = iota // 40%: /route?from=node
	kindLabels        // 35%: /labels?node=node (25% plus the 10% CDS share)
	kindKhop          // 15%: /khop?node=node&k=2
	kindTopK          // 10%: /centrality/topk?k=1..16
	numKinds
)

var kindNames = [numKinds]string{"route", "labels", "khop", "topk"}

// mixKhopK is the k of the mix's /khop reads (server.LoadGen's default).
const mixKhopK = 2

type readReq struct {
	kind uint8
	arg  int32 // node, or k for top-k
	wire []byte
}

// splitmix64 is server.LoadGen's per-query hash, so the socket client sends
// the same query stream the in-process load generator does.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mixRequest is query i of worker wid. serve runs without a CDS backbone by
// default, so LoadGen's 10% /cds/member share goes to /labels.
func mixRequest(seed uint64, wid, i, n int) readReq {
	h := splitmix64(seed ^ uint64(wid)<<32 ^ uint64(i))
	node := int32(h % uint64(n))
	switch mix := (h >> 32) % 100; {
	case mix < 40:
		return readFor(kindRoute, node)
	case mix < 65, mix >= 90:
		return readFor(kindLabels, node)
	case mix < 80:
		return readFor(kindKhop, node)
	default:
		return readFor(kindTopK, int32(1+(h>>40)%16))
	}
}

// readFor encodes a read of the given kind; arg is the node, or k for top-k.
func readFor(kind uint8, arg int32) readReq {
	a := strconv.Itoa(int(arg))
	var path string
	switch kind {
	case kindRoute:
		path = "/route?from=" + a
	case kindLabels:
		path = "/labels?node=" + a
	case kindKhop:
		path = "/khop?node=" + a + "&k=" + strconv.Itoa(mixKhopK)
	default:
		path = "/centrality/topk?k=" + a
	}
	return readReq{kind: kind, arg: arg, wire: getRequest(path)}
}

// mixRing pre-encodes worker wid's first size queries; the worker cycles
// through them.
func mixRing(seed uint64, wid, size, n int) []readReq {
	ring := make([]readReq, size)
	for i := range ring {
		ring[i] = mixRequest(seed, wid, i, n)
	}
	return ring
}

// ---- the mutation stream ----

// post is one /mutate request: removals and fresh adds alternating, so the
// last op is an added edge (probeU, probeV) whose arrival in /khop?k=1 of
// probeU marks the whole post visible.
type post struct {
	ops            []server.Mutation
	wire           []byte
	probeU, probeV int
	adds           [][2]int
}

type edgeKey [2]int32

func keyOf(u, v int) edgeKey {
	if u > v {
		u, v = v, u
	}
	return edgeKey{int32(u), int32(v)}
}

// churn generates posts from a seed and mirrors them into the benchmark's
// copy of the topology under the WAL's acceptance rule. Every add is an edge
// the run never touched before and every removal takes a visible edge, so
// the ops of posts in flight together touch disjoint edges and commute: the
// mirror matches the server whatever order their ops are queued in.
type churn struct {
	mu      sync.Mutex
	rng     *rand.Rand
	mirror  *graph.Graph
	touched map[edgeKey]struct{}
	pool    [][2]int // visible edges, oldest first: the removal candidates
}

// newChurn seeds the removal pool with poolSize edges of the initial
// topology, so removals start with the first post.
func newChurn(seed int64, mirror *graph.Graph, poolSize int) *churn {
	c := &churn{rng: stats.NewRand(seed ^ 0x5eed), mirror: mirror, touched: make(map[edgeKey]struct{})}
	n := mirror.N()
	for tries := 0; len(c.pool) < poolSize && tries < 100*poolSize; tries++ {
		u := c.rng.Intn(n)
		nb := mirror.Neighbors(u)
		if len(nb) == 0 {
			continue
		}
		v := nb[c.rng.Intn(len(nb))]
		k := keyOf(u, v)
		if _, used := c.touched[k]; used {
			continue
		}
		c.touched[k] = struct{}{}
		c.pool = append(c.pool, [2]int{u, v})
	}
	return c
}

// next builds a post of adds fresh edges and up to removes (at most adds)
// removals from the pool and applies it to the mirror.
func (c *churn) next(adds, removes int) post {
	c.mu.Lock()
	defer c.mu.Unlock()
	removes = min(removes, adds)
	if removes > len(c.pool) {
		removes = len(c.pool)
	}
	rem := c.pool[:removes]
	c.pool = c.pool[removes:]
	n := c.mirror.N()
	p := post{ops: make([]server.Mutation, 0, adds+removes)}
	for i := 0; i < adds; i++ {
		if i < len(rem) {
			e := rem[i]
			p.ops = append(p.ops, server.Mutation{Op: "remove", U: e[0], V: e[1]})
			c.mirror.RemoveEdge(e[0], e[1])
		}
		var u, v int
		for {
			u, v = c.rng.Intn(n), c.rng.Intn(n)
			if u == v || c.mirror.HasEdge(u, v) {
				continue
			}
			if _, used := c.touched[keyOf(u, v)]; !used {
				break
			}
		}
		c.touched[keyOf(u, v)] = struct{}{}
		_ = c.mirror.AddEdge(u, v)
		p.ops = append(p.ops, server.Mutation{Op: "add", U: u, V: v})
		p.adds = append(p.adds, [2]int{u, v})
		p.probeU, p.probeV = u, v
	}
	p.wire = postRequest("/mutate", encodeOps(p.ops))
	return p
}

// visible hands a post's adds to the removal pool once the server shows it.
func (c *churn) visible(p post) {
	c.mu.Lock()
	c.pool = append(c.pool, p.adds...)
	c.mu.Unlock()
}

func encodeOps(ops []server.Mutation) []byte {
	b := make([]byte, 0, 32*len(ops)+16)
	b = append(b, `{"ops":[`...)
	for i, m := range ops {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"op":"`...)
		b = append(b, m.Op...)
		b = append(b, `","u":`...)
		b = strconv.AppendInt(b, int64(m.U), 10)
		b = append(b, `,"v":`...)
		b = strconv.AppendInt(b, int64(m.V), 10)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}
