// Package centrality implements the node-importance measures the paper
// surveys in §III (degree, closeness, betweenness, eigenvector) and the two
// dynamic-labeling ranking processes of §IV-B (PageRank and HITS).
//
// The paper's point is that these are *single-node* measures, in contrast to
// the network-wide structures structura uncovers; they are implemented here
// both as baselines and because two of them (degree, betweenness) are used
// as trimming priorities in §III-A.
package centrality

import (
	"cmp"
	"errors"
	"math"
	"slices"

	"structura/internal/graph"
)

// Degree returns each node's degree (out-degree for directed graphs).
func Degree(g *graph.Graph) []float64 {
	out := make([]float64, g.N())
	for v := range out {
		out[v] = float64(g.Degree(v))
	}
	return out
}

// InDegree returns each node's in-degree (equal to Degree for undirected
// graphs), served from the graph's bulk in-degree array in O(n) rather
// than an O(n+m) scan per node.
func InDegree(g *graph.Graph) []float64 {
	degs := g.InDegrees()
	out := make([]float64, len(degs))
	for v, d := range degs {
		out[v] = float64(d)
	}
	return out
}

// Closeness returns, for each node, (n-1) divided by the sum of hop
// distances to all reachable nodes, scaled by the reachable fraction
// (the Wasserman–Faust generalization, well-defined on disconnected
// graphs). Isolated nodes get 0.
func Closeness(g *graph.Graph) []float64 {
	n := g.N()
	out := make([]float64, n)
	c := g.Freeze()
	dist := make([]int32, n)
	queue := make([]int32, 0, n)
	for v := 0; v < n; v++ {
		queue, _ = c.BFSInto(v, dist, queue) // v ranges over valid nodes
		var sum, reach float64
		for u, d := range dist {
			if u == v || d < 0 {
				continue
			}
			sum += float64(d)
			reach++
		}
		if sum > 0 {
			out[v] = (reach / float64(n-1)) * (reach / sum)
		}
	}
	return out
}

// Betweenness returns each node's (unnormalized) shortest-path betweenness
// via Brandes' algorithm on unweighted graphs. For undirected graphs each
// pair is counted once (values halved, per convention).
func Betweenness(g *graph.Graph) []float64 {
	n := g.N()
	c := g.Freeze()
	cb := make([]float64, n)
	sigma := make([]float64, n)
	dist := make([]int, n)
	delta := make([]float64, n)
	preds := make([][]int, n)
	stack := make([]int, 0, n)
	queue := make([]int, 0, n)

	for s := 0; s < n; s++ {
		stack = stack[:0]
		for i := 0; i < n; i++ {
			preds[i] = preds[i][:0]
			sigma[i] = 0
			dist[i] = -1
			delta[i] = 0
		}
		sigma[s] = 1
		dist[s] = 0
		queue = append(queue[:0], s)
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			stack = append(stack, v)
			for _, w := range c.Neighbors(v) {
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					queue = append(queue, int(w))
				}
				if dist[w] == dist[v]+1 {
					sigma[w] += sigma[v]
					preds[w] = append(preds[w], v)
				}
			}
		}
		for i := len(stack) - 1; i >= 0; i-- {
			w := stack[i]
			for _, v := range preds[w] {
				delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
			}
			if w != s {
				cb[w] += delta[w]
			}
		}
	}
	if !g.Directed() {
		for i := range cb {
			cb[i] /= 2
		}
	}
	return cb
}

// Eigenvector returns the eigenvector centrality (power iteration on the
// adjacency matrix, L2-normalized). It errors if iteration fails to make
// progress (e.g. an empty graph).
func Eigenvector(g *graph.Graph, iters int, tol float64) ([]float64, error) {
	n := g.N()
	if n == 0 {
		return nil, errors.New("centrality: empty graph")
	}
	if g.M() == 0 {
		return nil, errors.New("centrality: eigenvector undefined on an edgeless graph")
	}
	if iters <= 0 {
		iters = 100
	}
	if tol <= 0 {
		tol = 1e-9
	}
	c := g.Freeze()
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 / math.Sqrt(float64(n))
	}
	next := make([]float64, n)
	for it := 0; it < iters; it++ {
		// Iterate with (A + I) so the principal eigenvalue strictly
		// dominates even on bipartite graphs (plain power iteration
		// oscillates there); the shift leaves eigenvectors unchanged.
		copy(next, x)
		for v := 0; v < n; v++ {
			for _, w := range c.Neighbors(v) {
				next[w] += x[v]
			}
		}
		var norm float64
		for _, t := range next {
			norm += t * t
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			return nil, errors.New("centrality: eigenvector iteration collapsed (no edges)")
		}
		var diff float64
		for i := range next {
			next[i] /= norm
			diff += math.Abs(next[i] - x[i])
		}
		copy(x, next)
		if diff < tol {
			break
		}
	}
	return x, nil
}

// PageRank runs the classic damped random-surfer iteration until the L1
// change is below tol or iters passes elapse. Dangling mass is spread
// uniformly. The result sums to 1.
func PageRank(g *graph.Graph, damping float64, iters int, tol float64) ([]float64, error) {
	n := g.N()
	if n == 0 {
		return nil, errors.New("centrality: empty graph")
	}
	if damping <= 0 || damping >= 1 {
		return nil, errors.New("centrality: damping must be in (0,1)")
	}
	if iters <= 0 {
		iters = 100
	}
	if tol <= 0 {
		tol = 1e-10
	}
	c := g.Freeze()
	pr := make([]float64, n)
	next := make([]float64, n)
	for i := range pr {
		pr[i] = 1 / float64(n)
	}
	for it := 0; it < iters; it++ {
		base := (1 - damping) / float64(n)
		var dangling float64
		for i := range next {
			next[i] = base
		}
		for v := 0; v < n; v++ {
			nbrs := c.Neighbors(v)
			if len(nbrs) == 0 {
				dangling += pr[v]
				continue
			}
			share := damping * pr[v] / float64(len(nbrs))
			for _, w := range nbrs {
				next[w] += share
			}
		}
		spread := damping * dangling / float64(n)
		var diff float64
		for i := range next {
			next[i] += spread
			diff += math.Abs(next[i] - pr[i])
		}
		copy(pr, next)
		if diff < tol {
			break
		}
	}
	return pr, nil
}

// HITS returns hub and authority scores (Kleinberg's algorithm), each
// L2-normalized, after iters rounds or convergence below tol.
func HITS(g *graph.Graph, iters int, tol float64) (hubs, auths []float64, err error) {
	n := g.N()
	if n == 0 {
		return nil, nil, errors.New("centrality: empty graph")
	}
	if iters <= 0 {
		iters = 100
	}
	if tol <= 0 {
		tol = 1e-9
	}
	c := g.Freeze()
	hubs = make([]float64, n)
	auths = make([]float64, n)
	for i := range hubs {
		hubs[i] = 1
	}
	newAuth := make([]float64, n)
	newHub := make([]float64, n)
	for it := 0; it < iters; it++ {
		for i := range newAuth {
			newAuth[i] = 0
		}
		for v := 0; v < n; v++ {
			for _, w := range c.Neighbors(v) {
				newAuth[w] += hubs[v]
			}
		}
		normalizeL2(newAuth)
		for i := range newHub {
			newHub[i] = 0
		}
		for v := 0; v < n; v++ {
			var h float64
			for _, w := range c.Neighbors(v) {
				h += newAuth[w]
			}
			newHub[v] = h
		}
		normalizeL2(newHub)
		var diff float64
		for i := range hubs {
			diff += math.Abs(newHub[i]-hubs[i]) + math.Abs(newAuth[i]-auths[i])
		}
		copy(hubs, newHub)
		copy(auths, newAuth)
		if diff < tol {
			break
		}
	}
	return hubs, auths, nil
}

func normalizeL2(xs []float64) {
	var norm float64
	for _, x := range xs {
		norm += x * x
	}
	norm = math.Sqrt(norm)
	if norm == 0 {
		return
	}
	for i := range xs {
		xs[i] /= norm
	}
}

// Ranking returns node IDs sorted by descending score, ties by ascending
// ID. A NaN score ranks after every number, NaNs by ascending ID; -0 ties
// with 0.
//
// When every score is an integer in [0, len(scores)] — degrees, counts —
// Ranking is a counting sort in O(n + max score): nodes are bucketed by
// score, buckets laid out from the top score down, and each bucket filled
// in ascending-ID order. Any other score (a fraction, a negative, one above
// n, ±Inf or NaN) sends the whole input through a comparison sort under the
// same order, in O(n log n).
func Ranking(scores []float64) []int {
	n := len(scores)
	fn, top := float64(n), 0
	for _, s := range scores {
		if !(s >= 0 && s <= fn) || float64(int(s)) != s {
			return sortRanking(scores)
		}
		top = max(top, int(s))
	}
	// start[k] is the first output slot of score k's bucket.
	start := make([]int, top+1)
	for _, s := range scores {
		start[int(s)]++
	}
	pos := 0
	for k := top; k >= 0; k-- {
		pos, start[k] = pos+start[k], pos
	}
	ids := make([]int, n)
	for v, s := range scores {
		k := int(s)
		ids[start[k]] = v
		start[k]++
	}
	return ids
}

// sortRanking is Ranking's comparison path. IDs are unique, so (score desc,
// id asc) is a total order, and an unstable sort under it yields the stable
// result; cmp.Compare keeps the order total with NaNs present.
func sortRanking(scores []float64) []int {
	ids := make([]int, len(scores))
	for i := range ids {
		ids[i] = i
	}
	slices.SortFunc(ids, func(a, b int) int {
		if c := cmp.Compare(scores[b], scores[a]); c != 0 {
			return c
		}
		return a - b
	})
	return ids
}
