// Package partition prices a round-based distributed algorithm on k edge-cut
// shards. A Plan splits a frozen graph.CSR into k contiguous ownership
// ranges and records, per node, how many other shards own a reader of it.
// Run executes the algorithm on the ordinary unsharded kernel and reports
// the exchange a sharded deployment would need: every round, each node whose
// state changed (and each node restarted by a fault) ships its value once to
// every other shard that reads it. Rounds and messages are properties of the
// algorithm on a graph and a cut, not of how one process schedules the work,
// so the model needs no second executor.
package partition

import (
	"fmt"
	"sort"

	"structura/internal/graph"
)

// Strategy selects how ownership boundaries are chosen.
type Strategy int

const (
	// Contiguous gives every shard an equal slice of the node ID space.
	// Right for graphs with uniform degree (ER, UDG); degenerate when IDs
	// correlate with degree.
	Contiguous Strategy = iota
	// DegreeBalanced places boundaries at equal shares of the half-edge
	// prefix sum, so every shard sweeps about the same number of edges per
	// round regardless of degree skew.
	DegreeBalanced
)

// String names the strategy for reports.
func (s Strategy) String() string {
	switch s {
	case Contiguous:
		return "contiguous"
	case DegreeBalanced:
		return "degree-balanced"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Option configures New.
type Option func(*Plan)

// WithStrategy selects the boundary placement strategy (default Contiguous).
func WithStrategy(s Strategy) Option {
	return func(p *Plan) { p.strategy = s }
}

// Plan is an edge-cut partition of one CSR snapshot. Build with New; price a
// run with Run.
type Plan struct {
	g        *graph.CSR
	k        int
	bounds   []int32
	strategy Strategy
	// readers[v] is the number of shards other than v's owner that own a
	// node reading v (a node u with v in g.Neighbors(u)): the copies one
	// change of v costs.
	readers []int32
}

// New partitions g into k edge-cut shards. Requires 1 <= k <= g.N(); every
// shard owns at least one node.
func New(g *graph.CSR, k int, opts ...Option) (*Plan, error) {
	n := g.N()
	if k < 1 || k > n {
		return nil, fmt.Errorf("partition: need 1 <= k <= n, got k=%d n=%d", k, n)
	}
	p := &Plan{g: g, k: k, strategy: Contiguous}
	for _, o := range opts {
		o(p)
	}
	p.bounds = makeBounds(g, k, p.strategy)
	p.readers = remoteReaders(g, p.bounds)
	return p, nil
}

// makeBounds places the k+1 ownership boundaries. Both strategies guarantee
// strictly increasing bounds (no empty shards).
func makeBounds(g *graph.CSR, k int, st Strategy) []int32 {
	n := g.N()
	bounds := make([]int32, k+1)
	bounds[k] = int32(n)
	if st != DegreeBalanced {
		for s := 1; s < k; s++ {
			bounds[s] = int32(s * n / k)
		}
		// n >= k keeps s*n/k strictly increasing.
		return bounds
	}
	pre := make([]int64, n+1)
	for v := 0; v < n; v++ {
		pre[v+1] = pre[v] + int64(g.Degree(v))
	}
	total := pre[n]
	for s := 1; s < k; s++ {
		target := total * int64(s) / int64(k)
		b := sort.Search(n, func(i int) bool { return pre[i+1] > target })
		// Clamp so every shard (this one and the k-s remaining) is nonempty.
		if min := int(bounds[s-1]) + 1; b < min {
			b = min
		}
		if max := n - (k - s); b > max {
			b = max
		}
		bounds[s] = int32(b)
	}
	return bounds
}

// remoteReaders counts, for every node of g, the shards other than its owner
// that own at least one of its readers. One O(m) pass: shards are visited in
// order, and last[w] remembers the last shard that counted w.
func remoteReaders(g *graph.CSR, bounds []int32) []int32 {
	n := g.N()
	readers := make([]int32, n)
	last := make([]int32, n)
	for s := 0; s+1 < len(bounds); s++ {
		lo, hi, mark := bounds[s], bounds[s+1], int32(s+1)
		for u := lo; u < hi; u++ {
			for _, w := range g.Neighbors(int(u)) {
				if (w < lo || w >= hi) && last[w] != mark {
					last[w] = mark
					readers[w]++
				}
			}
		}
	}
	return readers
}

// Bounds returns the k+1 ascending ownership boundaries: shard s owns node
// IDs [Bounds()[s], Bounds()[s+1]).
func (p *Plan) Bounds() []int32 { return p.bounds }

// K returns the shard count.
func (p *Plan) K() int { return p.k }

// PlanStats summarizes the partition's quality: how much of the edge set
// crosses shards, how much state is replicated, and how uneven the per-round
// edge work is.
type PlanStats struct {
	Shards        int
	Nodes         int
	Edges         int
	CutEdges      int     // edges with endpoints on different shards
	CutFraction   float64 // CutEdges / Edges
	Ghosts        int     // remote copies a shard holds of nodes it reads, summed over shards
	GhostFraction float64 // Ghosts / Nodes
	MinOwned      int
	MaxOwned      int
	Imbalance     float64 // max shard half-edges / mean shard half-edges
}

// Stats computes the partition quality summary in one O(m) pass.
func (p *Plan) Stats() PlanStats {
	st := PlanStats{
		Shards:   p.k,
		Nodes:    p.g.N(),
		Edges:    p.g.M(),
		MinOwned: int(^uint(0) >> 1),
	}
	cutHalf := 0
	totalHalf := 0
	maxHalf := 0
	for s := 0; s < p.k; s++ {
		lo, hi := int(p.bounds[s]), int(p.bounds[s+1])
		own := hi - lo
		if own < st.MinOwned {
			st.MinOwned = own
		}
		if own > st.MaxOwned {
			st.MaxOwned = own
		}
		shardHalf := 0
		for v := lo; v < hi; v++ {
			row := p.g.Neighbors(v)
			shardHalf += len(row)
			for _, w := range row {
				if int(w) < lo || int(w) >= hi {
					cutHalf++
				}
			}
		}
		totalHalf += shardHalf
		if shardHalf > maxHalf {
			maxHalf = shardHalf
		}
	}
	for _, r := range p.readers {
		st.Ghosts += int(r)
	}
	st.CutEdges = cutHalf
	if !p.g.Directed() {
		st.CutEdges /= 2
	}
	if st.Edges > 0 {
		st.CutFraction = float64(st.CutEdges) / float64(st.Edges)
	}
	if st.Nodes > 0 {
		st.GhostFraction = float64(st.Ghosts) / float64(st.Nodes)
	}
	if totalHalf > 0 {
		st.Imbalance = float64(maxHalf) * float64(p.k) / float64(totalHalf)
	} else {
		st.Imbalance = 1
	}
	return st
}
