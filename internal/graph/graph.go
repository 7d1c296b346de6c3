// Package graph provides the static-graph substrate used throughout
// structura: an adjacency-list graph with the classic algorithms the paper
// builds on (traversals, shortest paths, components, spanning trees).
//
// Nodes are dense integer IDs in [0, N). This matches the paper's setting
// where "each node has a distinct ID" used for symmetry breaking, and keeps
// every algorithm allocation-friendly.
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// ErrNodeRange is returned when an operation names a node outside [0, N).
var ErrNodeRange = errors.New("graph: node out of range")

// Edge is a (possibly weighted) edge between two nodes.
type Edge struct {
	From, To int
	Weight   float64
}

// Graph is an adjacency-list graph over nodes 0..N-1. The zero value is an
// empty undirected graph; use New / NewDirected for sized construction.
type Graph struct {
	directed bool
	adj      [][]halfEdge
	edges    int
	// indeg caches per-node in-degrees for directed graphs (nil for
	// undirected, where in-degree == degree). It is maintained
	// incrementally by every mutation, so InDegree stays O(1) and
	// read-only methods never write to the graph (concurrent readers
	// stay safe).
	indeg []int
}

type halfEdge struct {
	to int
	w  float64
}

// New returns an undirected graph with n nodes and no edges.
func New(n int) *Graph {
	return &Graph{adj: make([][]halfEdge, n)}
}

// NewDirected returns a directed graph with n nodes and no edges.
func NewDirected(n int) *Graph {
	return &Graph{directed: true, adj: make([][]halfEdge, n), indeg: make([]int, n)}
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges (each undirected edge counted once).
func (g *Graph) M() int { return g.edges }

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// AddNode appends a new isolated node and returns its ID.
func (g *Graph) AddNode() int {
	g.adj = append(g.adj, nil)
	if g.directed {
		g.indeg = append(g.indeg, 0)
	}
	return len(g.adj) - 1
}

func (g *Graph) check(v int) error {
	if v < 0 || v >= len(g.adj) {
		return fmt.Errorf("%w: %d (n=%d)", ErrNodeRange, v, len(g.adj))
	}
	return nil
}

// AddEdge adds an unweighted (weight-1) edge between u and v.
func (g *Graph) AddEdge(u, v int) error {
	return g.AddWeightedEdge(u, v, 1)
}

// AddWeightedEdge adds an edge with the given weight. Parallel edges are
// allowed (callers that need simple graphs use HasEdge first); self-loops are
// rejected because no algorithm in the paper uses them.
func (g *Graph) AddWeightedEdge(u, v int, w float64) error {
	if err := g.check(u); err != nil {
		return err
	}
	if err := g.check(v); err != nil {
		return err
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	g.adj[u] = append(g.adj[u], halfEdge{to: v, w: w})
	if g.directed {
		g.indeg[v]++
	} else {
		g.adj[v] = append(g.adj[v], halfEdge{to: u, w: w})
	}
	g.edges++
	return nil
}

// CanAddEdge is the add half of the edge-acceptance rule every live
// topology in the system mutates under: an add is accepted only when both
// endpoints are in range, it is not a self-loop, and the edge is not already
// present. The remove half is RemoveEdge itself, which acts only on an
// existing edge. Because the rule is deterministic, replaying one event
// stream through it always rebuilds the same graph.
func (g *Graph) CanAddEdge(u, v int) bool {
	return g.check(u) == nil && g.check(v) == nil && u != v && !g.HasEdge(u, v)
}

// TryAddEdge adds edge (u,v) with weight w when CanAddEdge accepts it and
// reports whether it did.
func (g *Graph) TryAddEdge(u, v int, w float64) bool {
	return g.CanAddEdge(u, v) && g.AddWeightedEdge(u, v, w) == nil
}

// RemoveEdge deletes one edge between u and v (all parallel copies in the
// matching direction). It reports whether any edge was removed: a remove
// naming an absent edge or an out-of-range node is rejected.
func (g *Graph) RemoveEdge(u, v int) bool {
	removed := g.removeHalf(u, v)
	if removed > 0 {
		if g.directed {
			g.indeg[v] -= removed
		} else {
			g.removeHalf(v, u)
		}
	}
	g.edges -= removed
	return removed > 0
}

func (g *Graph) removeHalf(u, v int) int {
	if u < 0 || u >= len(g.adj) {
		return 0
	}
	kept := g.adj[u][:0]
	removed := 0
	for _, e := range g.adj[u] {
		if e.to == v {
			removed++
			continue
		}
		kept = append(kept, e)
	}
	g.adj[u] = kept
	return removed
}

// HasEdge reports whether an edge u->v exists (in either direction for
// undirected graphs).
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= len(g.adj) {
		return false
	}
	for _, e := range g.adj[u] {
		if e.to == v {
			return true
		}
	}
	return false
}

// Weight returns the weight of the first edge u->v, or an error if absent.
func (g *Graph) Weight(u, v int) (float64, error) {
	if err := g.check(u); err != nil {
		return 0, err
	}
	for _, e := range g.adj[u] {
		if e.to == v {
			return e.w, nil
		}
	}
	return 0, fmt.Errorf("graph: no edge %d->%d", u, v)
}

// Neighbors returns the out-neighbors of v in insertion order. The returned
// slice is a copy and safe to retain. Hot paths that only iterate should
// prefer EachNeighbor, or freeze the graph and use CSR.Neighbors for a
// zero-copy view; Neighbors keeps its copying semantics for API
// compatibility.
func (g *Graph) Neighbors(v int) []int {
	if v < 0 || v >= len(g.adj) {
		return nil
	}
	out := make([]int, len(g.adj[v]))
	for i, e := range g.adj[v] {
		out[i] = e.to
	}
	return out
}

// EachNeighbor calls fn for every out-neighbor (with edge weight) of v,
// without allocating.
func (g *Graph) EachNeighbor(v int, fn func(to int, w float64)) {
	if v < 0 || v >= len(g.adj) {
		return
	}
	for _, e := range g.adj[v] {
		fn(e.to, e.w)
	}
}

// Degree returns the out-degree of v.
func (g *Graph) Degree(v int) int {
	if v < 0 || v >= len(g.adj) {
		return 0
	}
	return len(g.adj[v])
}

// InDegree returns the in-degree of v. For undirected graphs it equals
// Degree. For directed graphs it is an O(1) read of the incrementally
// maintained in-degree cache.
func (g *Graph) InDegree(v int) int {
	if !g.directed {
		return g.Degree(v)
	}
	if v < 0 || v >= len(g.indeg) {
		return 0
	}
	return g.indeg[v]
}

// InDegrees returns the in-degree of every node in one O(n) pass (equal to
// Degrees for undirected graphs).
func (g *Graph) InDegrees() []int {
	if !g.directed {
		return g.Degrees()
	}
	return append([]int(nil), g.indeg...)
}

// Degrees returns the out-degree of every node.
func (g *Graph) Degrees() []int {
	out := make([]int, len(g.adj))
	for v := range g.adj {
		out[v] = len(g.adj[v])
	}
	return out
}

// Edges returns all edges. For undirected graphs, each edge appears once
// with From < To.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.edges)
	for u, lst := range g.adj {
		for _, e := range lst {
			if g.directed || u < e.to {
				out = append(out, Edge{From: u, To: e.to, Weight: e.w})
			}
		}
	}
	return out
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{directed: g.directed, adj: make([][]halfEdge, len(g.adj)), edges: g.edges}
	// One backing slab for every adjacency row: cloning costs two
	// allocations instead of one per node. Each row is capacity-capped, so
	// a later AddEdge on the clone reallocates that row alone and the
	// in-place compaction RemoveEdge performs stays inside the row.
	total := 0
	for _, lst := range g.adj {
		total += len(lst)
	}
	buf := make([]halfEdge, 0, total)
	for v, lst := range g.adj {
		off := len(buf)
		buf = append(buf, lst...)
		c.adj[v] = buf[off:len(buf):len(buf)]
	}
	if g.directed {
		c.indeg = append([]int(nil), g.indeg...)
	}
	return c
}

// Subgraph returns the induced subgraph on keep (a set of node IDs), along
// with the mapping newID -> oldID. Nodes are renumbered densely in ascending
// old-ID order.
func (g *Graph) Subgraph(keep map[int]bool) (*Graph, []int) {
	olds := make([]int, 0, len(keep))
	for v := range keep {
		if v >= 0 && v < len(g.adj) {
			olds = append(olds, v)
		}
	}
	sort.Ints(olds)
	newID := make(map[int]int, len(olds))
	for i, v := range olds {
		newID[v] = i
	}
	sub := &Graph{directed: g.directed, adj: make([][]halfEdge, len(olds))}
	if g.directed {
		sub.indeg = make([]int, len(olds))
	}
	for _, u := range olds {
		for _, e := range g.adj[u] {
			if !keep[e.to] {
				continue
			}
			if !g.directed && u > e.to {
				continue // count undirected edges once
			}
			nu, nv := newID[u], newID[e.to]
			sub.adj[nu] = append(sub.adj[nu], halfEdge{to: nv, w: e.w})
			if g.directed {
				sub.indeg[nv]++
			} else {
				sub.adj[nv] = append(sub.adj[nv], halfEdge{to: nu, w: e.w})
			}
			sub.edges++
		}
	}
	return sub, olds
}

// Undirected returns an undirected copy of g, collapsing edge directions.
// When both directions of a link existed they are deduplicated (via
// HasEdge) into a single undirected edge carrying the first direction's
// weight, so the result never contains parallel edges the directed graph
// did not already have.
func (g *Graph) Undirected() *Graph {
	if !g.directed {
		return g.Clone()
	}
	u := New(len(g.adj))
	for v, lst := range g.adj {
		for _, e := range lst {
			if !u.HasEdge(v, e.to) {
				_ = u.AddWeightedEdge(v, e.to, e.w)
			}
		}
	}
	return u
}
