package main

import (
	"encoding/json"
	"fmt"
	"slices"

	"structura/internal/centrality"
	"structura/internal/graph"
)

// oracle answers every read from the benchmark's own copy of the topology:
// BFS hop distances for routes, BFS balls for /khop, and the (degree desc,
// id asc) ranking for /labels degrees and /centrality/topk.
type oracle struct {
	g    *graph.Graph
	csr  *graph.CSR
	dest int
	dist []int32 // BFS hops to dest, -1 unreachable
	rank []int
	deg  []float64
}

func newOracle(g *graph.Graph, dest int) *oracle {
	o := &oracle{g: g, csr: g.Freeze(), dest: dest}
	o.dist = o.ball(dest, -1)
	o.deg = make([]float64, g.N())
	for v := range o.deg {
		o.deg[v] = float64(o.csr.Degree(v))
	}
	o.rank = centrality.Ranking(o.deg)
	return o
}

// ball returns BFS hop distances from src, cut at depth k (k < 0: no cut).
func (o *oracle) ball(src, k int) []int32 {
	dist := make([]int32, o.csr.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	q := []int32{int32(src)}
	for h := 0; h < len(q); h++ {
		v := q[h]
		if k >= 0 && int(dist[v]) >= k {
			continue
		}
		for _, u := range o.csr.Neighbors(int(v)) {
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				q = append(q, u)
			}
		}
	}
	return dist
}

// check verifies one read's response body against the topology.
func (o *oracle) check(kind uint8, arg int32, body []byte) error {
	switch kind {
	case kindRoute:
		var r struct {
			Epoch uint64  `json:"epoch"`
			From  int     `json:"from"`
			Dest  int     `json:"dest"`
			Dist  float64 `json:"dist"`
			Path  []int   `json:"path"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("route from %d: %w", arg, err)
		}
		return o.checkRoute(int(arg), r.From, r.Dest, r.Dist, r.Path)
	case kindLabels:
		var r struct {
			Node      int     `json:"node"`
			Degree    int     `json:"degree"`
			RouteDist float64 `json:"route_dist"`
			RouteNext int     `json:"route_next"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("labels of %d: %w", arg, err)
		}
		v := int(arg)
		if r.Node != v || r.Degree != o.csr.Degree(v) {
			return fmt.Errorf("labels of %d: node %d degree %d, want degree %d", v, r.Node, r.Degree, o.csr.Degree(v))
		}
		if want := float64(o.dist[v]); r.RouteDist != want {
			return fmt.Errorf("labels of %d: route_dist %v, want %v", v, r.RouteDist, want)
		}
		if o.dist[v] > 0 && (!o.csr.HasEdge(v, r.RouteNext) || o.dist[r.RouteNext] != o.dist[v]-1) {
			return fmt.Errorf("labels of %d: route_next %d is not one hop closer to %d", v, r.RouteNext, o.dest)
		}
		return nil
	case kindKhop:
		var r struct {
			Node  int   `json:"node"`
			K     int   `json:"k"`
			Count int   `json:"count"`
			Nodes []int `json:"nodes"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("khop of %d: %w", arg, err)
		}
		return o.checkKhop(int(arg), mixKhopK, r.Node, r.K, r.Count, r.Nodes)
	case kindTopK:
		var r struct {
			K     int `json:"k"`
			Nodes []struct {
				Node  int     `json:"node"`
				Score float64 `json:"score"`
			} `json:"nodes"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("topk %d: %w", arg, err)
		}
		k := min(int(arg), len(o.rank))
		if r.K != k || len(r.Nodes) != k {
			return fmt.Errorf("topk %d: got k %d with %d nodes", arg, r.K, len(r.Nodes))
		}
		for i, e := range r.Nodes {
			if e.Node != o.rank[i] || e.Score != o.deg[o.rank[i]] {
				return fmt.Errorf("topk %d: rank %d is node %d score %v, want node %d score %v",
					arg, i, e.Node, e.Score, o.rank[i], o.deg[o.rank[i]])
			}
		}
		return nil
	}
	return fmt.Errorf("unknown read kind %d", kind)
}

// checkRoute: the distance must equal the BFS hops to dest, and the path
// must walk real edges from the source to dest in exactly that many hops.
func (o *oracle) checkRoute(from, gotFrom, gotDest int, dist float64, path []int) error {
	if gotFrom != from || gotDest != o.dest {
		return fmt.Errorf("route from %d: answered from %d dest %d", from, gotFrom, gotDest)
	}
	want := o.dist[from]
	if want < 0 {
		if dist != -1 || len(path) != 0 {
			return fmt.Errorf("route from %d: dest unreachable, got dist %v path %v", from, dist, path)
		}
		return nil
	}
	if dist != float64(want) {
		return fmt.Errorf("route from %d: dist %v, BFS says %d", from, dist, want)
	}
	if len(path) != int(want)+1 || path[0] != from || path[len(path)-1] != o.dest {
		return fmt.Errorf("route from %d: path %v does not run from %d to %d in %d hops", from, path, from, o.dest, want)
	}
	for i := 1; i < len(path); i++ {
		if !o.csr.HasEdge(path[i-1], path[i]) {
			return fmt.Errorf("route from %d: path step %d-%d is not an edge", from, path[i-1], path[i])
		}
	}
	return nil
}

// checkKhop: the answer must be exactly the BFS k-ball around node, sorted,
// without the center.
func (o *oracle) checkKhop(node, k, gotNode, gotK, count int, nodes []int) error {
	if gotNode != node || gotK != k || count != len(nodes) {
		return fmt.Errorf("khop of %d: answered node %d k %d count %d with %d nodes", node, gotNode, gotK, count, len(nodes))
	}
	dist := o.ball(node, k)
	var want []int
	for v, d := range dist {
		if d > 0 {
			want = append(want, v)
		}
	}
	if !slices.Equal(nodes, want) {
		return fmt.Errorf("khop of %d k %d: %d nodes, BFS ball has %d", node, k, len(nodes), len(want))
	}
	return nil
}
